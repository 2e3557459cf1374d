#include "src/nn/linear.hpp"

#include "src/common/check.hpp"


#include "src/nn/init.hpp"
#include "src/tensor/gemm.hpp"

namespace ftpim {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng, bool with_bias)
    : CrossbarLayer(out_features, in_features),
      with_bias_(with_bias),
      bias_(Tensor(Shape{out_features}), ParamKind::kBias) {
  FTPIM_CHECK(!(in_features <= 0 || out_features <= 0), "Linear: feature counts must be positive");
  kaiming_uniform(weight_.value, in_features, rng);
}

Linear::Linear(const Linear& other)
    : CrossbarLayer(other),
      with_bias_(other.with_bias_),
      bias_(other.bias_.clone_detached()) {}

std::unique_ptr<Module> Linear::clone() const {
  return std::unique_ptr<Module>(new Linear(*this));
}

Tensor Linear::forward(const Tensor& input, bool training) {
  const std::int64_t out_features = weight_.value.dim(0), in_features = weight_.value.dim(1);
  FTPIM_CHECK(input.rank() == 2 && input.dim(1) == in_features,
              "Linear::forward: expected [N,%lld], got %s", static_cast<long long>(in_features),
              shape_to_string(input.shape()).c_str());
  if (training) cached_input_ = input;
  const std::int64_t n = input.dim(0);
  Tensor out(Shape{n, out_features});
  if (!training && mvm_hook_ != nullptr) {
    // Deployed path: the installed engine computes x W_effective^T.
    mvm_hook_->mvm_batch(input.data(), n, out.data());
  } else {
    // out[N,out] = input[N,in] * W^T[in,out] — the transpose is absorbed into
    // pack-B inside the kernel backend, not materialized.
    gemm_bt(n, out_features, in_features, 1.0f, input.data(), weight_.value.data(), 0.0f,
            out.data());
  }
  if (with_bias_) {
    float* po = out.data();
    const float* pb = bias_.value.data();
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < out_features; ++j) po[i * out_features + j] += pb[j];
    }
  }
  return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
  FTPIM_CHECK(!(cached_input_.empty()), "Linear::backward called without a training forward");
  const std::int64_t out_features = weight_.value.dim(0), in_features = weight_.value.dim(1);
  const std::int64_t n = grad_output.dim(0);
  // dW[out,in] += dY^T[out,N] * X[N,in]
  gemm_at(out_features, in_features, n, 1.0f, grad_output.data(), cached_input_.data(), 1.0f,
          weight_.grad.data());
  if (with_bias_) {
    float* pgb = bias_.grad.data();
    const float* pgo = grad_output.data();
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < out_features; ++j) pgb[j] += pgo[i * out_features + j];
    }
  }
  // dX[N,in] = dY[N,out] * W[out,in]
  Tensor grad_input(Shape{n, in_features});
  gemm(n, in_features, out_features, 1.0f, grad_output.data(), weight_.value.data(), 0.0f,
       grad_input.data());
  return grad_input;
}

void Linear::visit(ModuleWalk& walk) {
  CrossbarLayer::visit(walk);
  if (with_bias_) walk.param("bias", bias_);
}

}  // namespace ftpim
