// SGD with momentum and decoupled-per-kind weight decay (paper recipe:
// momentum SGD, initial LR 0.1, cosine schedule).
//
// Weight decay is applied only to crossbar weights (conv/linear kernels), as
// is conventional for BN networks. Optional per-parameter freeze masks keep
// ADMM-pruned positions at zero during fine-tuning.
#pragma once

#include <unordered_map>
#include <vector>

#include "src/tensor/param.hpp"
#include "src/tensor/serialize.hpp"

namespace ftpim {

struct SgdConfig {
  float lr = 0.1f;
  float momentum = 0.9f;
  float weight_decay = 5e-4f;
  float grad_clip = 0.0f;  ///< 0 disables; otherwise clip global L2 norm to this
};

class Sgd {
 public:
  /// `params` as named_parameters_of yields them; the names key state_dict().
  Sgd(std::vector<NamedParam> params, SgdConfig config);

  /// Applies one update using accumulated grads; does NOT zero grads.
  void step();

  void set_lr(float lr) noexcept { config_.lr = lr; }
  [[nodiscard]] float lr() const noexcept { return config_.lr; }
  [[nodiscard]] const SgdConfig& config() const noexcept { return config_; }

  /// Attaches a 0/1 mask for a parameter: masked (0) positions receive no
  /// update and are re-zeroed after each step (pruning support).
  void set_mask(const Param* param, Tensor mask);

  /// Momentum buffers keyed "velocity/<param name>" — the optimizer half of
  /// a training checkpoint (pruning masks are reconstructed by the pruner,
  /// not checkpointed). Round-trips bit-exactly through load_state().
  [[nodiscard]] StateDict state_dict() const;

  /// Restores momentum buffers captured by state_dict(). Throws
  /// ContractViolation on a missing entry or shape mismatch; every entry is
  /// checked before any is written, so a refused state changes nothing.
  void load_state(const StateDict& state);

 private:
  std::vector<NamedParam> params_;
  std::vector<Tensor> velocity_;
  std::unordered_map<const Param*, Tensor> masks_;
  SgdConfig config_;
};

}  // namespace ftpim
