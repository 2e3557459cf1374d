// Fully-connected layer: y = x W^T + b, x:[N,in], W:[out,in], b:[out].
//
// W and the MvmHook slot live in CrossbarLayer. An installed hook replaces
// the x W^T product during eval-mode forward (training and backward always
// use the float weights); see mvm_hook.hpp. The bias is digital periphery
// (ParamKind::kBias), never on the crossbar.
#pragma once

#include <memory>

#include "src/common/rng.hpp"
#include "src/nn/crossbar_layer.hpp"

namespace ftpim {

class Linear final : public CrossbarLayer {
 public:
  /// Initializes with Kaiming-uniform weights and zero bias.
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng, bool with_bias = true);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void visit(ModuleWalk& walk) override;
  [[nodiscard]] std::unique_ptr<Module> clone() const override;
  [[nodiscard]] std::string type_name() const override { return "Linear"; }

  [[nodiscard]] Param& bias() noexcept { return bias_; }

 private:
  Linear(const Linear& other);  ///< clone(): params copied, caches and hook dropped

  bool with_bias_;
  Param bias_;
  Tensor cached_input_;
};

}  // namespace ftpim
