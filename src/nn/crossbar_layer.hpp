// The one crossbar-layer type: a layer whose [out, in] weight matrix lives
// on ReRAM crossbars (Linear, Conv2d).
//
// It owns the kCrossbarWeight Param and the eval-forward MvmHook slot (see
// mvm_hook.hpp). crossbar_layers() and crossbar_params() (module.hpp) find
// these layers and their weights.
#pragma once

#include <cstdint>
#include <memory>

#include "src/nn/module.hpp"
#include "src/nn/mvm_hook.hpp"

namespace ftpim {

class CrossbarLayer : public Module {
 public:
  [[nodiscard]] Param& weight() noexcept { return weight_; }

  /// Installs (or, with nullptr, removes) the eval-forward MVM replacement.
  /// The hook's extents must match the weight's [out, in]. NOT carried by
  /// clone().
  void set_mvm_hook(std::shared_ptr<const MvmHook> hook);
  [[nodiscard]] const MvmHook* mvm_hook() const noexcept { return mvm_hook_.get(); }

  void visit(ModuleWalk& walk) override { walk.param("weight", weight_); }

 protected:
  /// A zero [out_features, in_features] weight; the layer initializes it.
  CrossbarLayer(std::int64_t out_features, std::int64_t in_features)
      : weight_(Tensor(Shape{out_features, in_features}), ParamKind::kCrossbarWeight) {}
  /// The clone rule: the weight is copied, the hook is dropped.
  CrossbarLayer(const CrossbarLayer& other) : Module(), weight_(other.weight_.clone_detached()) {}

  Param weight_;
  std::shared_ptr<const MvmHook> mvm_hook_;
};

}  // namespace ftpim
