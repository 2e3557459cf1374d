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
// order, so dW/db are bit-identical for any FTPIM_THREADS value.
constexpr std::int64_t kReduceSlots = 16;

}  // namespace

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
               std::int64_t stride, std::int64_t pad, Rng& rng, bool with_bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      with_bias_(with_bias),
      weight_("weight", Tensor(Shape{out_channels, in_channels * kernel * kernel}),
              ParamKind::kCrossbarWeight),
      bias_("bias", Tensor(Shape{out_channels}), ParamKind::kBias) {
  FTPIM_CHECK(!(in_channels <= 0 || out_channels <= 0 || kernel <= 0 || stride <= 0 || pad < 0), "Conv2d: invalid geometry");
  kaiming_normal(weight_.value, in_channels * kernel * kernel, rng);
}

Conv2d::Conv2d(const Conv2d& other)
    : in_channels_(other.in_channels_),
      out_channels_(other.out_channels_),
      kernel_(other.kernel_),
      stride_(other.stride_),
      pad_(other.pad_),
      with_bias_(other.with_bias_),
      weight_(other.weight_.clone_detached()),
      bias_(other.bias_.clone_detached()) {}

std::unique_ptr<Module> Conv2d::clone() const {
  return std::unique_ptr<Module>(new Conv2d(*this));
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  if (input.rank() != 4 || input.dim(1) != in_channels_) {
    throw ContractViolation("Conv2d::forward: expected [N," + std::to_string(in_channels_) +
                                ",H,W], got " + shape_to_string(input.shape()));
  }
  const std::int64_t n = input.dim(0);
  geom_ = ConvGeometry{.in_c = in_channels_,
                       .in_h = input.dim(2),
                       .in_w = input.dim(3),
                       .kernel_h = kernel_,
                       .kernel_w = kernel_,
                       .stride_h = stride_,
                       .stride_w = stride_,
                       .pad_h = pad_,
                       .pad_w = pad_};
  const std::int64_t oh = geom_.out_h();
  const std::int64_t ow = geom_.out_w();
  FTPIM_CHECK(!(oh <= 0 || ow <= 0), "Conv2d::forward: output would be empty");
  const std::int64_t in_plane = in_channels_ * geom_.in_h * geom_.in_w;
  const std::int64_t out_plane = out_channels_ * oh * ow;

  Tensor out(Shape{n, out_channels_, oh, ow});
  if (training) {
    cached_input_ = input;
    cached_batch_ = n;
  }

  // Patches are gathered inside the kernel backend's pack step (fused
  // im2col), so no per-image column matrix exists — not even in training:
  // backward re-gathers patches from cached_input_ the same way.
  const float* w = weight_.value.data();
  const MvmHook* hook = (!training && mvm_hook_ != nullptr) ? mvm_hook_.get() : nullptr;
  const auto forward_image = [&](std::size_t i) {
    float* dst = out.data() + static_cast<std::int64_t>(i) * out_plane;
    if (hook != nullptr) {
      hook->conv_image(input.data() + static_cast<std::int64_t>(i) * in_plane, geom_, dst);
    } else {
      kernels::conv_forward_packed(geom_, w, out_channels_,
                                   input.data() + static_cast<std::int64_t>(i) * in_plane, dst);
    }
    if (with_bias_) {
      const float* pb = bias_.value.data();
      for (std::int64_t c = 0; c < out_channels_; ++c) {
        float* row = dst + c * oh * ow;
        for (std::int64_t p = 0; p < oh * ow; ++p) row[p] += pb[c];
      }
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
  const std::int64_t oh = geom_.out_h();
  const std::int64_t ow = geom_.out_w();
  const std::int64_t in_plane = in_channels_ * geom_.in_h * geom_.in_w;
  const std::int64_t out_plane = out_channels_ * oh * ow;
  if (grad_output.rank() != 4 || grad_output.dim(0) != n || grad_output.dim(1) != out_channels_ ||
      grad_output.dim(2) != oh || grad_output.dim(3) != ow) {
    throw ContractViolation("Conv2d::backward: grad shape mismatch");
  }

  Tensor grad_input(cached_input_.shape());
  const float* w = weight_.value.data();
  const float* x = cached_input_.data();

  const std::int64_t slots = std::min<std::int64_t>(kReduceSlots, n);
  std::vector<Tensor> dw_partial(static_cast<std::size_t>(slots), Tensor(weight_.value.shape()));
  std::vector<Tensor> db_partial(static_cast<std::size_t>(slots), Tensor(bias_.value.shape()));

  const auto backward_slot = [&](std::size_t s) {
    const std::int64_t lo = static_cast<std::int64_t>(s) * n / slots;
    const std::int64_t hi = (static_cast<std::int64_t>(s) + 1) * n / slots;
    Tensor& dw = dw_partial[s];
    Tensor& db = db_partial[s];
    for (std::int64_t i = lo; i < hi; ++i) {
      const float* dy = grad_output.data() + i * out_plane;
      const float* img = x + i * in_plane;
      kernels::conv_grad_weight_packed(geom_, dy, out_channels_, img, dw.data());
      if (with_bias_) {
        float* pdb = db.data();
        for (std::int64_t c = 0; c < out_channels_; ++c) {
          const float* row = dy + c * oh * ow;
          double acc = 0.0;
          for (std::int64_t p = 0; p < oh * ow; ++p) acc += row[p];
          pdb[c] += static_cast<float>(acc);
        }
      }
      kernels::conv_grad_input_packed(geom_, w, out_channels_, dy, grad_input.data() + i * in_plane);
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
  if (with_bias_) {
    for (const Tensor& db : db_partial) {
      float* acc = bias_.grad.data();
      const float* src = db.data();
      for (std::int64_t i = 0; i < bias_.grad.numel(); ++i) acc[i] += src[i];
    }
  }
  return grad_input;
}

void Conv2d::set_mvm_hook(std::shared_ptr<const MvmHook> hook) {
  if (hook != nullptr) {
    const std::int64_t patch = in_channels_ * kernel_ * kernel_;
    FTPIM_CHECK(hook->in_features() == patch && hook->out_features() == out_channels_,
                "Conv2d::set_mvm_hook: hook extents [%lld -> %lld] do not match layer "
                "[%lld -> %lld]",
                static_cast<long long>(hook->in_features()),
                static_cast<long long>(hook->out_features()), static_cast<long long>(patch),
                static_cast<long long>(out_channels_));
  }
  mvm_hook_ = std::move(hook);
}

void Conv2d::collect_params(const std::string& prefix, std::vector<Param*>& out) {
  weight_.name = prefix + "weight";
  out.push_back(&weight_);
  if (with_bias_) {
    bias_.name = prefix + "bias";
    out.push_back(&bias_);
  }
}

}  // namespace ftpim
