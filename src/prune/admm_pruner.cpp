#include "src/prune/admm_pruner.hpp"

#include "src/common/check.hpp"

#include <algorithm>
#include <cmath>

namespace ftpim {

AdmmPruner::AdmmPruner(Module& root, const AdmmConfig& config)
    : params_(crossbar_params(root)), config_(config) {
  FTPIM_CHECK(!(config.sparsity < 0.0 || config.sparsity >= 1.0), "AdmmPruner: sparsity must be in [0,1)");
  FTPIM_CHECK(!(config.rho <= 0.0f), "AdmmPruner: rho must be positive");
  FTPIM_CHECK(!(params_.empty()), "AdmmPruner: no prunable parameters");
  z_.reserve(params_.size());
  u_.reserve(params_.size());
  keep_counts_.reserve(params_.size());
  for (const Param* p : params_) {
    const auto keep = static_cast<std::int64_t>(
        std::llround(static_cast<double>(p->value.numel()) * (1.0 - config.sparsity)));
    keep_counts_.push_back(std::clamp<std::int64_t>(keep, 1, p->value.numel()));
    z_.push_back(project_topk(p->value, keep_counts_.back()));
    u_.emplace_back(p->value.shape());  // zeros
  }
}

void AdmmPruner::regularize_grads() {
  if (finalized_) return;
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Param* p = params_[k];
    float* g = p->grad.data();
    const float* w = p->value.data();
    const float* z = z_[k].data();
    const float* u = u_[k].data();
    for (std::int64_t i = 0; i < p->value.numel(); ++i) {
      g[i] += config_.rho * (w[i] - z[i] + u[i]);
    }
  }
}

void AdmmPruner::dual_update() {
  if (finalized_) return;
  for (std::size_t k = 0; k < params_.size(); ++k) {
    const Param* p = params_[k];
    // Z = Pi_S(W + U)
    Tensor wu = p->value;
    const float* u = u_[k].data();
    float* t = wu.data();
    for (std::int64_t i = 0; i < wu.numel(); ++i) t[i] += u[i];
    z_[k] = project_topk(wu, keep_counts_[k]);
    // U += W - Z
    float* ud = u_[k].data();
    const float* w = p->value.data();
    const float* z = z_[k].data();
    for (std::int64_t i = 0; i < wu.numel(); ++i) ud[i] += w[i] - z[i];
  }
}

std::vector<PruneMask> AdmmPruner::finalize() {
  finalized_ = true;
  std::vector<PruneMask> masks;
  masks.reserve(params_.size());
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Param* p = params_[k];
    PruneMask m;
    m.param = p;
    m.mask = magnitude_keep_mask(p->value, keep_counts_[k]);
    apply_mask(p->value, m.mask);
    masks.push_back(std::move(m));
  }
  return masks;
}

double AdmmPruner::primal_residual() const {
  double sq = 0.0;
  for (std::size_t k = 0; k < params_.size(); ++k) {
    const float* w = params_[k]->value.data();
    const float* z = z_[k].data();
    for (std::int64_t i = 0; i < params_[k]->value.numel(); ++i) {
      const double d = static_cast<double>(w[i]) - z[i];
      sq += d * d;
    }
  }
  return std::sqrt(sq);
}

}  // namespace ftpim
