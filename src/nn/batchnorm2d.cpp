#include "src/nn/batchnorm2d.hpp"

#include "src/common/check.hpp"

#include <cmath>

namespace ftpim {

BatchNorm2d::BatchNorm2d(std::int64_t channels)
    : channels_(channels),
      gamma_(Tensor(Shape{channels}, 1.0f), ParamKind::kNorm),
      beta_(Tensor(Shape{channels}, 0.0f), ParamKind::kNorm),
      running_mean_(Shape{channels}, 0.0f),
      running_var_(Shape{channels}, 1.0f) {
  FTPIM_CHECK(!(channels <= 0), "BatchNorm2d: channels must be positive");
}

BatchNorm2d::BatchNorm2d(const BatchNorm2d& other)
    : channels_(other.channels_),
      gamma_(other.gamma_.clone_detached()),
      beta_(other.beta_.clone_detached()),
      running_mean_(other.running_mean_),
      running_var_(other.running_var_) {}

std::unique_ptr<Module> BatchNorm2d::clone() const {
  return std::unique_ptr<Module>(new BatchNorm2d(*this));
}

Tensor BatchNorm2d::forward(const Tensor& input, bool training) {
  if (input.rank() != 4 || input.dim(1) != channels_) {
    throw ContractViolation("BatchNorm2d::forward: expected [N," + std::to_string(channels_) +
                                ",H,W], got " + shape_to_string(input.shape()));
  }
  const std::int64_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const std::int64_t plane = h * w;
  const std::int64_t count = n * plane;
  Tensor out(input.shape());

  const float* gamma = gamma_.value.data();
  const float* beta = beta_.value.data();

  if (training) {
    cached_n_ = n;
    cached_h_ = h;
    cached_w_ = w;
    cached_xhat_ = Tensor(input.shape());
    cached_inv_std_ = Tensor(Shape{channels_});
    for (std::int64_t c = 0; c < channels_; ++c) {
      double sum = 0.0, sq = 0.0;
      for (std::int64_t i = 0; i < n; ++i) {
        const float* src = input.data() + (i * channels_ + c) * plane;
        for (std::int64_t p = 0; p < plane; ++p) {
          sum += src[p];
          sq += static_cast<double>(src[p]) * src[p];
        }
      }
      const double mean = sum / static_cast<double>(count);
      const double var = sq / static_cast<double>(count) - mean * mean;
      const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + kEps);
      cached_inv_std_[c] = inv_std;
      running_mean_[c] = (1.0f - kMomentum) * running_mean_[c] +
                         kMomentum * static_cast<float>(mean);
      // Unbiased variance for running stats (PyTorch convention).
      const double unbiased =
          count > 1 ? var * static_cast<double>(count) / static_cast<double>(count - 1) : var;
      running_var_[c] = (1.0f - kMomentum) * running_var_[c] +
                        kMomentum * static_cast<float>(unbiased);
      for (std::int64_t i = 0; i < n; ++i) {
        const float* src = input.data() + (i * channels_ + c) * plane;
        float* xh = cached_xhat_.data() + (i * channels_ + c) * plane;
        float* dst = out.data() + (i * channels_ + c) * plane;
        for (std::int64_t p = 0; p < plane; ++p) {
          const float xhat = (src[p] - static_cast<float>(mean)) * inv_std;
          xh[p] = xhat;
          dst[p] = gamma[c] * xhat + beta[c];
        }
      }
    }
  } else {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float inv_std = 1.0f / std::sqrt(running_var_[c] + kEps);
      const float mean = running_mean_[c];
      const float g = gamma[c] * inv_std;
      const float b = beta[c] - g * mean;
      for (std::int64_t i = 0; i < n; ++i) {
        const float* src = input.data() + (i * channels_ + c) * plane;
        float* dst = out.data() + (i * channels_ + c) * plane;
        for (std::int64_t p = 0; p < plane; ++p) dst[p] = g * src[p] + b;
      }
    }
  }
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_output) {
  FTPIM_CHECK(!(cached_xhat_.empty()), "BatchNorm2d::backward called without a training forward");
  const std::int64_t n = cached_n_, h = cached_h_, w = cached_w_;
  const std::int64_t plane = h * w;
  const std::int64_t count = n * plane;
  Tensor grad_input(grad_output.shape());
  const float* gamma = gamma_.value.data();

  for (std::int64_t c = 0; c < channels_; ++c) {
    // dgamma = sum(dy * xhat), dbeta = sum(dy)
    double dgamma = 0.0, dbeta = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      const float* dy = grad_output.data() + (i * channels_ + c) * plane;
      const float* xh = cached_xhat_.data() + (i * channels_ + c) * plane;
      for (std::int64_t p = 0; p < plane; ++p) {
        dgamma += static_cast<double>(dy[p]) * xh[p];
        dbeta += dy[p];
      }
    }
    gamma_.grad[c] += static_cast<float>(dgamma);
    beta_.grad[c] += static_cast<float>(dbeta);

    // dx = gamma*inv_std/count * (count*dy - dbeta - xhat*dgamma)
    const float scale = gamma[c] * cached_inv_std_[c] / static_cast<float>(count);
    const float fcount = static_cast<float>(count);
    const float fdg = static_cast<float>(dgamma);
    const float fdb = static_cast<float>(dbeta);
    for (std::int64_t i = 0; i < n; ++i) {
      const float* dy = grad_output.data() + (i * channels_ + c) * plane;
      const float* xh = cached_xhat_.data() + (i * channels_ + c) * plane;
      float* dx = grad_input.data() + (i * channels_ + c) * plane;
      for (std::int64_t p = 0; p < plane; ++p) {
        dx[p] = scale * (fcount * dy[p] - fdb - xh[p] * fdg);
      }
    }
  }
  return grad_input;
}

void BatchNorm2d::visit(ModuleWalk& walk) {
  walk.param("gamma", gamma_);
  walk.param("beta", beta_);
  walk.buffer("running_mean", running_mean_);
  walk.buffer("running_var", running_var_);
}

}  // namespace ftpim
