// Device-to-device conductance variation (lognormal), an extension beyond
// the paper's SAF-only study.
//
// Programming a target conductance g lands at g * exp(sigma * N(0,1)),
// clamped to the device range — the standard lognormal programming-variation
// model for ReRAM. The ablation bench combines this with SAF to show that
// stochastic FT training also buys robustness against analog drift.
#pragma once

#include "src/common/rng.hpp"
#include "src/nn/module.hpp"
#include "src/reram/conductance.hpp"
#include "src/tensor/tensor.hpp"

namespace ftpim {

struct VariationConfig {
  float sigma = 0.1f;          ///< lognormal sigma of the programming error
  ConductanceRange range{};    ///< w_max is tensor_w_max of each tensor
};

/// Applies lognormal conductance variation to `weights` in place through the
/// differential-pair mapping.
void apply_conductance_variation(Tensor& weights, const VariationConfig& config, Rng& rng);

/// Applies variation to every crossbar-weight parameter of a network.
void apply_variation_to_model(Module& model_root, const VariationConfig& config, Rng& rng);

}  // namespace ftpim
