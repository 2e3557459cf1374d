#include "src/nn/residual.hpp"

#include "src/common/check.hpp"


#include "src/nn/activations.hpp"

namespace ftpim {

ResidualBlock::ResidualBlock(std::int64_t in_channels, std::int64_t out_channels,
                             std::int64_t stride, Rng& rng)
    : in_channels_(in_channels), out_channels_(out_channels), stride_(stride) {
  FTPIM_CHECK(!(stride != 1 && stride != 2), "ResidualBlock: stride must be 1 or 2");
  FTPIM_CHECK(!(stride == 1 && in_channels != out_channels), "ResidualBlock: channel change requires stride 2 (option A)");
  main_.emplace<Conv2d>(in_channels, out_channels, 3, stride, 1, rng);
  main_.emplace<BatchNorm2d>(out_channels);
  main_.emplace<ReLU>();
  main_.emplace<Conv2d>(out_channels, out_channels, 3, 1, 1, rng);
  main_.emplace<BatchNorm2d>(out_channels);
}

ResidualBlock::ResidualBlock(const ResidualBlock& other)
    : in_channels_(other.in_channels_),
      out_channels_(other.out_channels_),
      stride_(other.stride_),
      main_(other.main_) {}

std::unique_ptr<Module> ResidualBlock::clone() const {
  return std::unique_ptr<Module>(new ResidualBlock(*this));
}

Tensor ResidualBlock::shortcut_forward(const Tensor& x) const {
  if (stride_ == 1 && in_channels_ == out_channels_) return x;
  // Option A: spatial subsample by stride, zero-pad new channels.
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = (h + stride_ - 1) / stride_;
  const std::int64_t ow = (w + stride_ - 1) / stride_;
  Tensor out(Shape{n, out_channels_, oh, ow});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t c = 0; c < in_channels_; ++c) {
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t xx = 0; xx < ow; ++xx) {
          out.at(i, c, y, xx) = x.at(i, c, y * stride_, xx * stride_);
        }
      }
    }
  }
  return out;
}

Tensor ResidualBlock::shortcut_backward(const Tensor& grad) const {
  if (stride_ == 1 && in_channels_ == out_channels_) return grad;
  const std::int64_t n = cached_in_shape_[0], h = cached_in_shape_[2], w = cached_in_shape_[3];
  Tensor out(Shape{n, in_channels_, h, w});
  const std::int64_t oh = grad.dim(2), ow = grad.dim(3);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t c = 0; c < in_channels_; ++c) {  // padded channels carry no gradient
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t xx = 0; xx < ow; ++xx) {
          out.at(i, c, y * stride_, xx * stride_) = grad.at(i, c, y, xx);
        }
      }
    }
  }
  return out;
}

Tensor ResidualBlock::forward(const Tensor& input, bool training) {
  if (training) cached_in_shape_ = input.shape();
  Tensor main_out = main_.forward(input, training);
  const Tensor short_out = shortcut_forward(input);
  if (main_out.shape() != short_out.shape()) {
    throw ContractViolation("ResidualBlock: main/shortcut shape mismatch " +
                           shape_to_string(main_out.shape()) + " vs " +
                           shape_to_string(short_out.shape()));
  }
  float* pm = main_out.data();
  const float* ps = short_out.data();
  if (training) {
    cached_sum_mask_ = Tensor(main_out.shape());
    float* mask = cached_sum_mask_.data();
    for (std::int64_t i = 0; i < main_out.numel(); ++i) {
      const float s = pm[i] + ps[i];
      const bool pos = s > 0.0f;
      mask[i] = pos ? 1.0f : 0.0f;
      pm[i] = pos ? s : 0.0f;
    }
  } else {
    for (std::int64_t i = 0; i < main_out.numel(); ++i) {
      const float s = pm[i] + ps[i];
      pm[i] = s > 0.0f ? s : 0.0f;
    }
  }
  return main_out;
}

Tensor ResidualBlock::backward(const Tensor& grad_output) {
  FTPIM_CHECK(!(cached_sum_mask_.empty()), "ResidualBlock::backward without training forward");
  Tensor grad_sum(grad_output.shape());
  const float* dy = grad_output.data();
  const float* mask = cached_sum_mask_.data();
  float* ds = grad_sum.data();
  for (std::int64_t i = 0; i < grad_output.numel(); ++i) ds[i] = dy[i] * mask[i];

  Tensor grad_main = main_.backward(grad_sum);
  const Tensor grad_short = shortcut_backward(grad_sum);
  FTPIM_CHECK(!(grad_main.shape() != grad_short.shape()), "ResidualBlock::backward: gradient shape mismatch");
  float* pa = grad_main.data();
  const float* pb = grad_short.data();
  for (std::int64_t i = 0; i < grad_main.numel(); ++i) pa[i] += pb[i];
  return grad_main;
}

}  // namespace ftpim
