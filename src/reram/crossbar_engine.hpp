// Float cell-level read-back oracle for the differential-pair mapping.
//
// A weight matrix W [out, in] maps onto tiles of physical crossbars:
//   * rows carry the input dimension (split into ceil(in / tile_rows) tiles),
//   * each output column uses a differential pair of crossbar columns, so a
//     tile holds tile_cols/2 outputs.
// Every cell keeps its programmed (analog, unquantized) conductance plus a
// separate fault byte, so stuck cells pin the readout without destroying the
// programmed value and clear_defects() restores the die exactly.
//
// This is the float ground truth the two fast datapaths must agree with:
// the weight-space injector with analog cells (fault_injector.hpp) and, to
// within half a level step, QuantizedCrossbarEngine's read_back. The seeded
// three-way differential test in tests/crossbar_engine_test.cpp pushes one
// DefectMap through all three.
#pragma once

#include <cstdint>
#include <vector>

#include "src/reram/conductance.hpp"
#include "src/reram/defect_map.hpp"
#include "src/tensor/tensor.hpp"

namespace ftpim {

struct CrossbarEngineConfig {
  std::int64_t tile_rows = 128;
  std::int64_t tile_cols = 128;  ///< must be even (differential pairs)
  ConductanceRange range{};
};

class CrossbarEngine {
 public:
  /// Programs W [out, in] onto tiles with w_max = tensor_w_max(W).
  CrossbarEngine(const Tensor& weights, const CrossbarEngineConfig& config);

  [[nodiscard]] std::int64_t tile_count() const noexcept { return row_tiles_ * col_tiles_; }
  [[nodiscard]] std::int64_t total_cells() const noexcept {
    return static_cast<std::int64_t>(fault_.size());
  }
  [[nodiscard]] std::int64_t stuck_cells() const noexcept;

  /// Applies a weight-indexed defect map (cell_count == 2 * out * in; cell
  /// 2*w is the positive cell of flat weight w = o * in + i, cell 2*w + 1
  /// the negative cell) — the convention of fault_injector.hpp and
  /// QuantizedCrossbarEngine::apply_defect_map. Maps layer: named cells
  /// overwrite their fault state, the rest keep theirs.
  void apply_defect_map(const DefectMap& map);

  /// Restores a defect-free die: the programmed conductances were never
  /// overwritten, so read_back() returns exactly the pre-defect matrix.
  void clear_defects();

  /// Reads the effective weight matrix (including fault distortions).
  [[nodiscard]] Tensor read_back() const;

 private:
  /// Flat index of weight (o, i)'s positive cell; the negative cell is next.
  [[nodiscard]] std::size_t cell_of(std::int64_t o, std::int64_t i) const noexcept;
  [[nodiscard]] float effective(std::size_t cell) const noexcept;

  std::int64_t out_, in_;
  CrossbarEngineConfig config_;
  float w_max_;
  std::int64_t row_tiles_, col_tiles_;
  std::int64_t outs_per_tile_;
  std::vector<float> g_;             ///< programmed conductance, [tile][row][col]
  std::vector<std::uint8_t> fault_;  ///< FaultType per cell (0 = healthy)
};

}  // namespace ftpim
