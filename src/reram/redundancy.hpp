// Hardware redundancy schemes — the error-correction family the paper cites
// as complementary to stochastic FT training ([28] T. Liu et al., DAC'19;
// redundant columns [4]). Implemented here: R-modular redundancy at the
// weight level — each weight is stored on R independent differential cell
// pairs and read back as the median (R odd), which masks any single stuck
// cell at R=3 (TMR) at 3x cell cost.
//
// Each replica pair reads back through the injector's stuck_pair_readback
// with analog cells, so R = 1 draws the same per-cell stream as
// apply_stuck_at_faults at quant_levels 0 and gives the same bits. A
// redundant die is built on a model clone, like any other float die.
//
// The redundancy ablation bench combines this with stochastic FT training to
// reproduce the paper's claim that the two approaches compose.
#pragma once

#include "src/common/rng.hpp"
#include "src/nn/module.hpp"
#include "src/reram/conductance.hpp"
#include "src/reram/fault_injector.hpp"
#include "src/reram/fault_model.hpp"
#include "src/tensor/tensor.hpp"

namespace ftpim {

struct RedundancyConfig {
  int replicas = 3;            ///< R (odd, >= 1); 1 = no redundancy
  ConductanceRange range{};    ///< w_max is tensor_w_max of each tensor
};

/// Applies stuck-at faults to a weight tensor deployed with R-modular
/// redundancy: every weight is programmed on R cell pairs, faults hit each
/// cell independently at the model's rate, and the weight reads back as the
/// median of the R pair readouts. Stats count 2R cells per weight.
InjectionStats apply_faults_with_redundancy(Tensor& weights, const StuckAtFaultModel& model,
                                            const RedundancyConfig& config, Rng& rng);

/// Applies redundant injection to every crossbar weight of a network, in
/// crossbar_params order (the model-level sibling of apply_variation_to_model).
InjectionStats apply_redundancy_to_model(Module& model_root, const StuckAtFaultModel& model,
                                         const RedundancyConfig& config, Rng& rng);

}  // namespace ftpim
