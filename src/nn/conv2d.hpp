// 2-D convolution (NCHW) via fused-im2col packed GEMM.
//
// Patch gathering happens inside the kernel backend's pack step
// (src/tensor/kernels/), so the [C*kh*kw, oh*ow] column matrix is never
// materialized — forward, dW, and dX all stream KC x NR panels through the
// per-thread pack arena instead.
//
// CIFAR-style ResNets use 3x3 stride-1/2 pad-1 convolutions without bias
// (batch norm follows), so the layer has none.
//
// The [out_c, in_c*k*k] filter matrix and the MvmHook slot live in
// CrossbarLayer. An installed hook replaces the filter GEMM during eval-mode
// forward: each image goes to the hook's conv_image, whose default lowers it
// to a [out_h*out_w, C*kh*kw] patch matrix fed to mvm_batch as a batch of
// patch rows (training and backward always use the float weights); see
// mvm_hook.hpp.
#pragma once

#include <memory>

#include "src/common/rng.hpp"
#include "src/nn/crossbar_layer.hpp"
#include "src/tensor/im2col.hpp"

namespace ftpim {

class Conv2d final : public CrossbarLayer {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
         std::int64_t stride, std::int64_t pad, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::unique_ptr<Module> clone() const override;
  [[nodiscard]] std::string type_name() const override { return "Conv2d"; }

  [[nodiscard]] std::int64_t out_channels() const { return weight_.value.dim(0); }
  [[nodiscard]] std::int64_t kernel() const noexcept { return geom_.kernel_h; }
  [[nodiscard]] std::int64_t stride() const noexcept { return geom_.stride_h; }

 private:
  Conv2d(const Conv2d& other);  ///< clone(): weight copied, caches and hook dropped

  ConvGeometry geom_;  ///< fixed at construction but for in_h/in_w, which forward sets
  Tensor cached_input_;  ///< training only; backward re-gathers patches from it
  std::int64_t cached_batch_ = 0;
};

}  // namespace ftpim
