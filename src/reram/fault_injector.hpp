// Weight-space stuck-at-fault injection — the paper's Apply_Fault(w, P_sa).
//
// For every weight, its differential cell pair is materialized, each cell is
// independently subjected to the SAF model, and the (possibly faulted) pair
// is read back into weight space. This is exactly what the cell-level
// CrossbarEngine oracle reads back, collapsed to a fast per-weight path. For
// one DefectMap, apply_defect_map_to_model matches CrossbarEngine::read_back
// at quant_levels = 0 and QuantizedCrossbarEngine::read_back bit for bit at
// quant_levels = L (the seeded three-way test in
// tests/crossbar_engine_test.cpp).
//
// stuck_pair_readback is the one read-back of a pair. Its callers differ
// only in where the cell faults come from: apply_stuck_at_faults draws them
// per cell from the RNG (the evaluator and FT training run it through a
// FaultInjectionSession, one per worker-thread model clone),
// apply_defect_map_to_model reads them from a device's DefectMap, and
// R-modular redundancy (redundancy.hpp) draws them per replica.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"
#include "src/nn/module.hpp"
#include "src/reram/conductance.hpp"
#include "src/reram/defect_map.hpp"
#include "src/reram/fault_model.hpp"
#include "src/reram/quantizer.hpp"
#include "src/tensor/tensor.hpp"

namespace ftpim {

/// Every tensor maps onto its differential pairs with w_max = tensor_w_max.
struct InjectorConfig {
  ConductanceRange range{};
  int quant_levels = 0;       ///< 0 = analog cells (paper setting)
};

struct InjectionStats {
  std::int64_t cells = 0;             ///< 2 per weight (2R under R-modular redundancy)
  std::int64_t faulted_cells = 0;
  std::int64_t affected_weights = 0;  ///< weights whose read-back value changed
  [[nodiscard]] double cell_fault_rate() const noexcept {
    return cells > 0 ? static_cast<double>(faulted_cells) / static_cast<double>(cells) : 0.0;
  }
  InjectionStats& operator+=(const InjectionStats& other) noexcept {
    cells += other.cells;
    faulted_cells += other.faulted_cells;
    affected_weights += other.affected_weights;
    return *this;
  }
};

/// Read-back of one weight's differential pair whose positive and negative
/// cells carry `f_pos` / `f_neg`. A healthy pair of analog cells (quant
/// levels 0) returns `weight` unchanged, with no conductance round trip.
/// Otherwise the pair is programmed (snapped to the quantizer's levels when
/// it has >= 2), each faulted cell is pinned — stuck-off at Gmin, stuck-on at
/// Gmax — and the pair reads back through the differential equation.
inline float stuck_pair_readback(float weight, FaultType f_pos, FaultType f_neg,
                                 const DifferentialMapper& mapper,
                                 const ConductanceQuantizer& quant) noexcept {
  if (f_pos == FaultType::kNone && f_neg == FaultType::kNone && quant.levels() == 0) {
    return weight;
  }
  CellPair cells = mapper.to_cells(weight);
  if (quant.levels() >= 2) {
    cells.g_pos = quant.quantize(cells.g_pos);
    cells.g_neg = quant.quantize(cells.g_neg);
  }
  const ConductanceRange& range = mapper.range();
  if (f_pos != FaultType::kNone) {
    cells.g_pos = f_pos == FaultType::kStuckOff ? range.g_min : range.g_max;
  }
  if (f_neg != FaultType::kNone) {
    cells.g_neg = f_neg == FaultType::kStuckOff ? range.g_min : range.g_max;
  }
  return mapper.to_weight(cells);
}

/// Apply_Fault on one tensor: draws two cell faults per weight from `rng`
/// (positive cell first) and writes the read-back of `src` into `dst`.
/// `dst` may be `src` (in place); a distinct `dst` is reshaped like `src`,
/// reusing its storage when the shape already matches, and `src` is never
/// touched. The w_max scale is tensor_w_max(src). If `hit_mask` is non-null
/// it is shaped like `src` (storage reused too) and set to 1 at weights that
/// have a faulted cell and whose value changed.
InjectionStats apply_stuck_at_faults(const Tensor& src, Tensor& dst,
                                     const StuckAtFaultModel& model, const InjectorConfig& config,
                                     Rng& rng, Tensor* hit_mask = nullptr);

/// Injects into every crossbar-weight parameter of `model_root`.
InjectionStats inject_into_model(Module& model_root, const StuckAtFaultModel& model,
                                 const InjectorConfig& config, Rng& rng);

/// Cells `model_root` occupies on its differential-pair deployment: 2 cells
/// per crossbar weight, concatenated in crossbar_params order. This is the
/// cell_count a DefectMap for the model must carry.
[[nodiscard]] std::int64_t crossbar_cell_count(Module& model_root);

/// Applies a cell-level DefectMap to every crossbar weight of `model_root`.
/// Weight i of the crossbar_params walk owns cells 2i (positive) and 2i+1
/// (negative); each pair reads back through stuck_pair_readback, exactly
/// like the RNG-driven path. Weights must hold their CLEAN values — map
/// application is defined against the clean programming of each pair, which
/// is why the serving layer's aging path rebuilds replicas from the pristine
/// source before re-applying a grown map. The map's cell_count must equal
/// crossbar_cell_count(model_root).
InjectionStats apply_defect_map_to_model(Module& model_root, const DefectMap& map,
                                         const InjectorConfig& config);

/// Reusable inject/restore workspace bound to one network — the one way to
/// fault a model's weights and get the clean ones back.
///
/// Thread-safety contract: a session (like the Module it binds) is
/// single-owner — one session per worker clone, never shared across threads
/// (see evaluate_under_defects). inject() enforces non-concurrent use with an
/// always-on contract check on an internal atomic flag.
///
/// Binds to the crossbar-weight parameters of `model_root` once; every
/// inject() computes faulted copies into persistent shadow buffers and then
/// swaps them in (exception-safe: the model is untouched until all copies
/// succeeded; the publish step is noexcept swaps). restore() swaps the clean
/// tensors back in O(pointers) and is idempotent. Buffers — shadows and hit
/// masks — are allocated on the first inject() and reused afterwards, which
/// is what keeps per-iteration fault injection in FaultTolerantTrainer
/// allocation-free in steady state.
class FaultInjectionSession {
 public:
  explicit FaultInjectionSession(Module& model_root);
  ~FaultInjectionSession();  ///< restores clean weights if still injected

  FaultInjectionSession(const FaultInjectionSession&) = delete;
  FaultInjectionSession& operator=(const FaultInjectionSession&) = delete;

  /// Snapshots clean weights and publishes a freshly drawn fault map.
  /// Restores first if a previous injection is still active.
  const InjectionStats& inject(const StuckAtFaultModel& model, const InjectorConfig& config,
                               Rng& rng);

  /// Swaps the clean weights back (idempotent, noexcept).
  void restore() noexcept;

  [[nodiscard]] bool injected() const noexcept { return injected_; }
  [[nodiscard]] const InjectionStats& stats() const noexcept { return stats_; }

  /// Zeroes the gradient of every weight a cell fault changed, so no update
  /// flows into a weight the faults pin (GradMode::kMasked, device-specific
  /// retraining). Call while injected().
  void zero_hit_gradients() noexcept;

 private:
  std::vector<Param*> params_;
  std::vector<Tensor> shadow_;  ///< faulted copy pre-publish, clean copy while injected
  std::vector<Tensor> hit_masks_;  ///< 1 where a cell fault changed the weight
  InjectionStats stats_;
  bool injected_ = false;
  std::atomic<bool> busy_{false};  ///< inject() reentrancy/concurrency detector
};

}  // namespace ftpim
