#include "src/nn/conv2d.hpp"

#include "src/common/check.hpp"

#include <algorithm>

#include "src/common/parallel.hpp"
#include "src/nn/init.hpp"
#include "src/tensor/kernels/conv_kernels.hpp"

namespace ftpim {
namespace {

// Fixed number of gradient-accumulation slots in backward. Deliberately
// independent of num_threads(): each slot owns a fixed image range and is
// processed by exactly one worker, and the slot partials are reduced in slot
// order, so dW is bit-identical for any FTPIM_THREADS value.
constexpr std::int64_t kReduceSlots = 16;

}  // namespace

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
               std::int64_t stride, std::int64_t pad, Rng& rng)
    : CrossbarLayer(out_channels, in_channels * kernel * kernel),
      geom_{.in_c = in_channels,
            .kernel_h = kernel,
            .kernel_w = kernel,
            .stride_h = stride,
            .stride_w = stride,
            .pad_h = pad,
            .pad_w = pad} {
  FTPIM_CHECK(!(in_channels <= 0 || out_channels <= 0 || kernel <= 0 || stride <= 0 || pad < 0), "Conv2d: invalid geometry");
  kaiming_normal(weight_.value, in_channels * kernel * kernel, rng);
}

Conv2d::Conv2d(const Conv2d& other) : CrossbarLayer(other), geom_(other.geom_) {}

std::unique_ptr<Module> Conv2d::clone() const {
  return std::unique_ptr<Module>(new Conv2d(*this));
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  if (input.rank() != 4 || input.dim(1) != geom_.in_c) {
    throw ContractViolation("Conv2d::forward: expected [N," + std::to_string(geom_.in_c) +
                                ",H,W], got " + shape_to_string(input.shape()));
  }
  const std::int64_t n = input.dim(0);
  const std::int64_t out_c = weight_.value.dim(0);
  geom_.in_h = input.dim(2);
  geom_.in_w = input.dim(3);
  const std::int64_t oh = geom_.out_h();
  const std::int64_t ow = geom_.out_w();
  FTPIM_CHECK(!(oh <= 0 || ow <= 0), "Conv2d::forward: output would be empty");
  const std::int64_t in_plane = geom_.in_c * geom_.in_h * geom_.in_w;
  const std::int64_t out_plane = out_c * oh * ow;

  Tensor out(Shape{n, out_c, oh, ow});
  if (training) {
    cached_input_ = input;
    cached_batch_ = n;
  }

  // Patches are gathered inside the kernel backend's pack step (fused
  // im2col), so no per-image column matrix exists — not even in training:
  // backward re-gathers patches from cached_input_ the same way.
  const float* w = weight_.value.data();
  const MvmHook* hook = training ? nullptr : mvm_hook_.get();
  const auto forward_image = [&](std::size_t i) {
    const float* src = input.data() + static_cast<std::int64_t>(i) * in_plane;
    float* dst = out.data() + static_cast<std::int64_t>(i) * out_plane;
    if (hook != nullptr) {
      hook->conv_image(src, geom_, dst);
    } else {
      kernels::conv_forward_packed(geom_, w, out_c, src, dst);
    }
  };
  parallel_for_chunks(
      0, static_cast<std::size_t>(n),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) forward_image(i);
      },
      /*min_parallel_trip=*/2);
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  FTPIM_CHECK(!(cached_input_.empty() || cached_batch_ == 0), "Conv2d::backward called without a training forward");
  const std::int64_t n = cached_batch_;
  const std::int64_t out_c = weight_.value.dim(0);
  const std::int64_t oh = geom_.out_h();
  const std::int64_t ow = geom_.out_w();
  const std::int64_t in_plane = geom_.in_c * geom_.in_h * geom_.in_w;
  const std::int64_t out_plane = out_c * oh * ow;
  if (grad_output.rank() != 4 || grad_output.dim(0) != n || grad_output.dim(1) != out_c ||
      grad_output.dim(2) != oh || grad_output.dim(3) != ow) {
    throw ContractViolation("Conv2d::backward: grad shape mismatch");
  }

  Tensor grad_input(cached_input_.shape());
  const float* w = weight_.value.data();
  const float* x = cached_input_.data();

  const std::int64_t slots = std::min<std::int64_t>(kReduceSlots, n);
  std::vector<Tensor> dw_partial(static_cast<std::size_t>(slots), Tensor(weight_.value.shape()));

  const auto backward_slot = [&](std::size_t s) {
    const std::int64_t lo = static_cast<std::int64_t>(s) * n / slots;
    const std::int64_t hi = (static_cast<std::int64_t>(s) + 1) * n / slots;
    Tensor& dw = dw_partial[s];
    for (std::int64_t i = lo; i < hi; ++i) {
      const float* dy = grad_output.data() + i * out_plane;
      const float* img = x + i * in_plane;
      kernels::conv_grad_weight_packed(geom_, dy, out_c, img, dw.data());
      kernels::conv_grad_input_packed(geom_, w, out_c, dy, grad_input.data() + i * in_plane);
    }
  };
  parallel_for_chunks(
      0, static_cast<std::size_t>(slots),
      [&](std::size_t first, std::size_t last) {
        for (std::size_t s = first; s < last; ++s) backward_slot(s);
      },
      /*min_parallel_trip=*/2);

  for (const Tensor& dw : dw_partial) {
    float* acc = weight_.grad.data();
    const float* src = dw.data();
    for (std::int64_t i = 0; i < weight_.grad.numel(); ++i) acc[i] += src[i];
  }
  return grad_input;
}

}  // namespace ftpim
