#include "src/nn/activations.hpp"

#include "src/common/check.hpp"

#include <cmath>

namespace ftpim {

Tensor ReLU::forward(const Tensor& input, bool training) {
  Tensor out(input.shape());
  const float* src = input.data();
  float* dst = out.data();
  if (training) {
    cached_mask_ = Tensor(input.shape());
    float* mask = cached_mask_.data();
    for (std::int64_t i = 0; i < input.numel(); ++i) {
      const bool pos = src[i] > 0.0f;
      mask[i] = pos ? 1.0f : 0.0f;
      dst[i] = pos ? src[i] : 0.0f;
    }
  } else {
    for (std::int64_t i = 0; i < input.numel(); ++i) dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  FTPIM_CHECK(!(cached_mask_.empty()), "ReLU::backward without training forward");
  FTPIM_CHECK(!(grad_output.shape() != cached_mask_.shape()), "ReLU::backward: grad shape mismatch");
  Tensor grad_input(grad_output.shape());
  const float* dy = grad_output.data();
  const float* mask = cached_mask_.data();
  float* dx = grad_input.data();
  for (std::int64_t i = 0; i < grad_output.numel(); ++i) dx[i] = dy[i] * mask[i];
  return grad_input;
}

std::unique_ptr<Module> ReLU::clone() const { return std::make_unique<ReLU>(); }

Tensor Tanh::forward(const Tensor& input, bool training) {
  Tensor out(input.shape());
  const float* src = input.data();
  float* dst = out.data();
  for (std::int64_t i = 0; i < input.numel(); ++i) dst[i] = std::tanh(src[i]);
  if (training) cached_output_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  FTPIM_CHECK(!(cached_output_.empty()), "Tanh::backward without training forward");
  Tensor grad_input(grad_output.shape());
  const float* dy = grad_output.data();
  const float* y = cached_output_.data();
  float* dx = grad_input.data();
  for (std::int64_t i = 0; i < grad_output.numel(); ++i) dx[i] = dy[i] * (1.0f - y[i] * y[i]);
  return grad_input;
}

std::unique_ptr<Module> Tanh::clone() const { return std::make_unique<Tanh>(); }

}  // namespace ftpim
