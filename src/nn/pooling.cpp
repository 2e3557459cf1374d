#include "src/nn/pooling.hpp"

#include "src/common/check.hpp"

#include <limits>

namespace ftpim {

Tensor GlobalAvgPool::forward(const Tensor& input, bool training) {
  FTPIM_CHECK(!(input.rank() != 4), "GlobalAvgPool: rank-4 input required");
  if (training) cached_in_shape_ = input.shape();
  const std::int64_t n = input.dim(0), c = input.dim(1), plane = input.dim(2) * input.dim(3);
  Tensor out(Shape{n, c});
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* src = input.data() + (i * c + ch) * plane;
      double acc = 0.0;
      for (std::int64_t p = 0; p < plane; ++p) acc += src[p];
      out.at(i, ch) = static_cast<float>(acc) * inv;
    }
  }
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  FTPIM_CHECK(!(cached_in_shape_.empty()), "GlobalAvgPool::backward without training forward");
  const std::int64_t n = cached_in_shape_[0], c = cached_in_shape_[1];
  const std::int64_t plane = cached_in_shape_[2] * cached_in_shape_[3];
  Tensor grad_input(cached_in_shape_);
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float g = grad_output.at(i, ch) * inv;
      float* dst = grad_input.data() + (i * c + ch) * plane;
      for (std::int64_t p = 0; p < plane; ++p) dst[p] = g;
    }
  }
  return grad_input;
}

std::unique_ptr<Module> GlobalAvgPool::clone() const { return std::make_unique<GlobalAvgPool>(); }

Tensor MaxPool2d::forward(const Tensor& input, bool training) {
  FTPIM_CHECK(!(input.rank() != 4), "MaxPool2d: rank-4 input required");
  const std::int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2), w = input.dim(3);
  const std::int64_t oh = h / 2;
  const std::int64_t ow = w / 2;
  FTPIM_CHECK(!(oh <= 0 || ow <= 0), "MaxPool2d: output would be empty");
  Tensor out(Shape{n, c, oh, ow});
  if (training) {
    cached_in_shape_ = input.shape();
    cached_argmax_.assign(static_cast<std::size_t>(n * c * oh * ow), 0);
  }
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = input.data() + (i * c + ch) * h * w;
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t x = 0; x < ow; ++x) {
          const std::int64_t corner = 2 * y * w + 2 * x;  // the window's top-left input
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_idx = 0;
          for (const std::int64_t idx : {corner, corner + 1, corner + w, corner + w + 1}) {
            if (plane[idx] > best) {
              best = plane[idx];
              best_idx = idx;
            }
          }
          out.at(i, ch, y, x) = best;
          if (training) {
            cached_argmax_[static_cast<std::size_t>(((i * c + ch) * oh + y) * ow + x)] = best_idx;
          }
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  FTPIM_CHECK(!(cached_in_shape_.empty()), "MaxPool2d::backward without training forward");
  const std::int64_t n = cached_in_shape_[0], c = cached_in_shape_[1];
  const std::int64_t h = cached_in_shape_[2], w = cached_in_shape_[3];
  const std::int64_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  Tensor grad_input(cached_in_shape_);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      float* dst = grad_input.data() + (i * c + ch) * h * w;
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t x = 0; x < ow; ++x) {
          const std::int64_t idx =
              cached_argmax_[static_cast<std::size_t>(((i * c + ch) * oh + y) * ow + x)];
          dst[idx] += grad_output.at(i, ch, y, x);
        }
      }
    }
  }
  return grad_input;
}

std::unique_ptr<Module> MaxPool2d::clone() const { return std::make_unique<MaxPool2d>(); }

Tensor Flatten::forward(const Tensor& input, bool training) {
  FTPIM_CHECK(!(input.rank() < 2), "Flatten: rank >= 2 required");
  if (training) cached_in_shape_ = input.shape();
  const std::int64_t n = input.dim(0);
  return input.reshaped(Shape{n, input.numel() / n});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  FTPIM_CHECK(!(cached_in_shape_.empty()), "Flatten::backward without training forward");
  return grad_output.reshaped(cached_in_shape_);
}

std::unique_ptr<Module> Flatten::clone() const { return std::make_unique<Flatten>(); }

}  // namespace ftpim
