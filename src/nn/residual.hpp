// Residual block for CIFAR-style ResNets (He et al. 2016).
//
// main path: conv3x3(s) -> BN -> ReLU -> conv3x3(1) -> BN
// shortcut : identity, or "option A" when shape changes — stride-2
//            subsample plus zero-padded channels (parameter-free, as in the
//            original CIFAR ResNets; keeps all crossbar weights inside the
//            main path which simplifies fault-injection accounting).
// output   : ReLU(main + shortcut)
#pragma once

#include <memory>

#include "src/common/rng.hpp"
#include "src/nn/batchnorm2d.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/module.hpp"
#include "src/nn/sequential.hpp"

namespace ftpim {

class ResidualBlock final : public Module {
 public:
  ResidualBlock(std::int64_t in_channels, std::int64_t out_channels, std::int64_t stride,
                Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void visit(ModuleWalk& walk) override { walk.child("main", main_); }
  [[nodiscard]] std::unique_ptr<Module> clone() const override;
  [[nodiscard]] std::string type_name() const override { return "ResidualBlock"; }

 private:
  ResidualBlock(const ResidualBlock& other);  ///< clone(): main path deep-copied


  /// Applies the option-A shortcut to x (identity when shapes match).
  [[nodiscard]] Tensor shortcut_forward(const Tensor& x) const;
  /// Backprop through the option-A shortcut.
  [[nodiscard]] Tensor shortcut_backward(const Tensor& grad) const;

  std::int64_t in_channels_, out_channels_, stride_;
  Sequential main_;
  Tensor cached_sum_mask_;  ///< ReLU mask over (main + shortcut)
  Shape cached_in_shape_;
};

}  // namespace ftpim
