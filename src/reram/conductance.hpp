// Weight <-> conductance mapping for ReRAM crossbars.
//
// Each signed weight is stored as a differential pair of cells (G+, G-):
//   G+ = Gmin + max(w,0)/wmax * (Gmax - Gmin)
//   G- = Gmin + max(-w,0)/wmax * (Gmax - Gmin)
// so the readout difference is proportional to w:
//   w  = (G+ - G-) * wmax / (Gmax - Gmin).
// Stuck-off (SA0) pins a cell at Gmin, stuck-on (SA1) at Gmax; reconstruction
// through the same readout equation turns cell faults into effective-weight
// perturbations (a stuck-on cell of the wrong polarity flips a weight all the
// way to ±wmax, which is why SAF defects are so destructive).
#pragma once

#include "src/common/check.hpp"

namespace ftpim {

struct ConductanceRange {
  float g_min = 0.03125f;  ///< normalized; on/off ratio 32 (HfO2-class device)
  float g_max = 1.0f;

  [[nodiscard]] float span() const noexcept { return g_max - g_min; }
  void validate() const {
    FTPIM_CHECK(g_min >= 0.0f && g_max > g_min, "ConductanceRange: require 0 <= g_min < g_max");
  }
};

struct CellPair {
  float g_pos = 0.0f;
  float g_neg = 0.0f;
};

class Tensor;

/// The full-scale weight magnitude a tensor is mapped with: its abs-max, or
/// 1 for an all-zero tensor (any scale maps zeros to zeros).
[[nodiscard]] float tensor_w_max(const Tensor& weights);

class DifferentialMapper {
 public:
  /// w_max is the full-scale weight magnitude (tensor_w_max in practice).
  DifferentialMapper(ConductanceRange range, float w_max);

  /// Weight -> differential conductance pair. Weights beyond ±w_max saturate.
  [[nodiscard]] CellPair to_cells(float weight) const noexcept;

  /// Differential pair -> effective weight (readout equation).
  [[nodiscard]] float to_weight(const CellPair& cells) const noexcept;

  [[nodiscard]] const ConductanceRange& range() const noexcept { return range_; }
  [[nodiscard]] float w_max() const noexcept { return w_max_; }

 private:
  ConductanceRange range_;
  float w_max_;
  float w_to_g_;  ///< (g_max - g_min) / w_max
  float g_to_w_;  ///< w_max / (g_max - g_min)
};

}  // namespace ftpim
