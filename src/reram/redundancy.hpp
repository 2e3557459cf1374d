// Hardware redundancy schemes — the error-correction family the paper cites
// as complementary to stochastic FT training ([28] T. Liu et al., DAC'19;
// redundant columns [4]). Implemented here: R-modular redundancy at the
// weight level — each weight is stored on R independent differential cell
// pairs and read back as the median (R odd), which masks any single stuck
// cell at R=3 (TMR) at 3x cell cost.
//
// The redundancy ablation bench combines this with stochastic FT training to
// reproduce the paper's claim that the two approaches compose.
#pragma once

#include <cstdint>

#include "src/common/rng.hpp"
#include "src/nn/module.hpp"
#include "src/reram/conductance.hpp"
#include "src/reram/fault_model.hpp"
#include "src/tensor/tensor.hpp"

namespace ftpim {

struct RedundancyConfig {
  int replicas = 3;            ///< R (odd, >= 1); 1 = no redundancy
  ConductanceRange range{};    ///< w_max is each tensor's abs-max
};

struct RedundantInjectionStats {
  std::int64_t cells = 0;            ///< 2 * R * weights
  std::int64_t faulted_cells = 0;
  std::int64_t affected_weights = 0; ///< weights whose median readback changed
  [[nodiscard]] double cell_fault_rate() const noexcept {
    return cells > 0 ? static_cast<double>(faulted_cells) / static_cast<double>(cells) : 0.0;
  }
};

/// Applies stuck-at faults to a weight tensor deployed with R-modular
/// redundancy: every weight is programmed on R cell pairs, faults hit each
/// cell independently at the model's rate, and the weight reads back as the
/// median of the R pair readouts.
RedundantInjectionStats apply_faults_with_redundancy(Tensor& weights,
                                                     const StuckAtFaultModel& model,
                                                     const RedundancyConfig& config, Rng& rng);

/// Applies redundant injection to every crossbar weight of a network and
/// restores the clean weights on destruction (mirrors WeightFaultGuard).
class RedundantFaultGuard {
 public:
  RedundantFaultGuard(Module& model_root, const StuckAtFaultModel& model,
                      const RedundancyConfig& config, Rng& rng);
  ~RedundantFaultGuard();
  RedundantFaultGuard(const RedundantFaultGuard&) = delete;
  RedundantFaultGuard& operator=(const RedundantFaultGuard&) = delete;

  void restore();
  [[nodiscard]] const RedundantInjectionStats& stats() const noexcept { return stats_; }

 private:
  std::vector<Param*> params_;
  std::vector<Tensor> clean_;
  RedundantInjectionStats stats_;
  bool restored_ = false;
};

}  // namespace ftpim
