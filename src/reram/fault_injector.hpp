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
// The primitive is apply_faults_to_copy: a PURE function from a clean weight
// tensor to a faulted copy + hit mask that never touches the source. The
// in-place path (apply_stuck_at_faults), the reusable FaultInjectionSession,
// and the RAII WeightFaultGuard are all built on it; the parallel defect
// evaluator runs one session per worker-thread model clone.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"
#include "src/nn/module.hpp"
#include "src/reram/conductance.hpp"
#include "src/reram/defect_map.hpp"
#include "src/reram/fault_model.hpp"
#include "src/tensor/tensor.hpp"

namespace ftpim {

/// Every tensor maps onto its differential pairs with w_max = its abs-max.
struct InjectorConfig {
  ConductanceRange range{};
  int quant_levels = 0;       ///< 0 = analog cells (paper setting)
};

struct InjectionStats {
  std::int64_t cells = 0;             ///< 2 * weights
  std::int64_t faulted_cells = 0;
  std::int64_t affected_weights = 0;  ///< weights whose value changed
  [[nodiscard]] double cell_fault_rate() const noexcept {
    return cells > 0 ? static_cast<double>(faulted_cells) / static_cast<double>(cells) : 0.0;
  }
};

/// Non-mutating Apply_Fault: writes the faulted read-back of `src` into `dst`
/// (reusing `dst`'s storage when the shape already matches) without touching
/// `src`. The differential-pair w_max scale is derived from `src`, so the
/// result is bit-identical to faulting `src` in place. If `hit_mask` is
/// non-null it is shaped like `src` (storage reused too) and set to 1 at
/// weights whose cells faulted.
InjectionStats apply_faults_to_copy(const Tensor& src, Tensor& dst,
                                    const StuckAtFaultModel& model, const InjectorConfig& config,
                                    Rng& rng, Tensor* hit_mask = nullptr);

/// Applies stuck-at faults to `weights` in place (same RNG stream and float
/// semantics as apply_faults_to_copy).
InjectionStats apply_stuck_at_faults(Tensor& weights, const StuckAtFaultModel& model,
                                     const InjectorConfig& config, Rng& rng,
                                     Tensor* hit_mask = nullptr);

/// Injects into every crossbar-weight parameter of `model_root`.
InjectionStats inject_into_model(Module& model_root, const StuckAtFaultModel& model,
                                 const InjectorConfig& config, Rng& rng);

/// Cells `model_root` occupies on its differential-pair deployment: 2 cells
/// per crossbar weight, concatenated in parameters_of order. This is the
/// cell_count a DefectMap for the model must carry.
[[nodiscard]] std::int64_t crossbar_cell_count(Module& model_root);

/// Applies a cell-level DefectMap to every crossbar weight of `model_root`.
/// Weight i of the concatenated parameter walk owns cells 2i (positive) and
/// 2i+1 (negative); stuck cells pin to Gmin/Gmax and the weight reads back
/// through the differential readout equation, exactly like the RNG-driven
/// fault_kernel. Weights must hold their CLEAN values — map application is
/// defined against the clean programming of each pair, which is why the
/// serving layer's aging path rebuilds replicas from the pristine source
/// before re-applying a grown map. The map's cell_count must equal
/// crossbar_cell_count(model_root).
InjectionStats apply_defect_map_to_model(Module& model_root, const DefectMap& map,
                                         const InjectorConfig& config);

/// Reusable inject/restore workspace bound to one network.
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

  /// Per-parameter hit masks, parallel to faulted_params(); 1 where a cell
  /// fault changed the weight. Valid after the first inject().
  [[nodiscard]] const std::vector<Tensor>& hit_masks() const noexcept { return hit_masks_; }
  [[nodiscard]] const std::vector<Param*>& faulted_params() const noexcept { return params_; }

 private:
  std::vector<Param*> params_;
  std::vector<Tensor> shadow_;  ///< faulted copy pre-publish, clean copy while injected
  std::vector<Tensor> hit_masks_;
  InjectionStats stats_;
  bool injected_ = false;
  std::atomic<bool> busy_{false};  ///< inject() reentrancy/concurrency detector
};

/// RAII: snapshots all crossbar weights of a network, injects faults, and
/// restores the clean weights on destruction (or on restore()). Thin
/// single-shot wrapper over FaultInjectionSession.
class WeightFaultGuard {
 public:
  WeightFaultGuard(Module& model_root, const StuckAtFaultModel& model,
                   const InjectorConfig& config, Rng& rng);

  WeightFaultGuard(const WeightFaultGuard&) = delete;
  WeightFaultGuard& operator=(const WeightFaultGuard&) = delete;

  /// Restores clean weights early (idempotent).
  void restore() noexcept { session_.restore(); }

  [[nodiscard]] const InjectionStats& stats() const noexcept { return session_.stats(); }

  /// Per-parameter hit masks, parallel to parameters_of(model) filtered to
  /// crossbar weights; 1 where a cell fault changed the weight.
  [[nodiscard]] const std::vector<Tensor>& hit_masks() const noexcept {
    return session_.hit_masks();
  }
  [[nodiscard]] const std::vector<Param*>& faulted_params() const noexcept {
    return session_.faulted_params();
  }

 private:
  FaultInjectionSession session_;
};

}  // namespace ftpim
