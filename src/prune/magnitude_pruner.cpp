#include "src/prune/magnitude_pruner.hpp"

#include "src/common/check.hpp"

#include <algorithm>
#include <cmath>

namespace ftpim {
namespace {

std::vector<PruneMask> per_layer_prune(const std::vector<Param*>& params, double sparsity) {
  std::vector<PruneMask> masks;
  masks.reserve(params.size());
  for (Param* p : params) {
    const auto keep = static_cast<std::int64_t>(
        std::llround(static_cast<double>(p->value.numel()) * (1.0 - sparsity)));
    PruneMask m;
    m.param = p;
    m.mask = magnitude_keep_mask(p->value, std::clamp<std::int64_t>(keep, 0, p->value.numel()));
    apply_mask(p->value, m.mask);
    masks.push_back(std::move(m));
  }
  return masks;
}

std::vector<PruneMask> global_prune(const std::vector<Param*>& params, double sparsity) {
  // Single magnitude threshold across all tensors: concatenate magnitudes.
  std::int64_t total = 0;
  for (const Param* p : params) total += p->value.numel();
  Tensor all(Shape{total});
  std::int64_t off = 0;
  for (const Param* p : params) {
    const float* v = p->value.data();
    float* dst = all.data() + off;
    for (std::int64_t i = 0; i < p->value.numel(); ++i) dst[i] = v[i];
    off += p->value.numel();
  }
  const auto keep = static_cast<std::int64_t>(
      std::llround(static_cast<double>(total) * (1.0 - sparsity)));
  const Tensor global_mask =
      magnitude_keep_mask(all, std::clamp<std::int64_t>(keep, 0, total));

  std::vector<PruneMask> masks;
  masks.reserve(params.size());
  off = 0;
  for (Param* p : params) {
    PruneMask m;
    m.param = p;
    m.mask = Tensor(p->value.shape());
    const float* src = global_mask.data() + off;
    float* dst = m.mask.data();
    for (std::int64_t i = 0; i < p->value.numel(); ++i) dst[i] = src[i];
    off += p->value.numel();
    apply_mask(p->value, m.mask);
    masks.push_back(std::move(m));
  }
  return masks;
}

}  // namespace

std::vector<PruneMask> magnitude_prune(Module& root, const MagnitudePruneConfig& config) {
  FTPIM_CHECK(!(config.sparsity < 0.0 || config.sparsity >= 1.0), "magnitude_prune: sparsity must be in [0,1)");
  const std::vector<Param*> params = crossbar_params(root);
  FTPIM_CHECK(!(params.empty()), "magnitude_prune: no prunable parameters");
  return config.scope == PruneScope::kGlobal ? global_prune(params, config.sparsity)
                                             : per_layer_prune(params, config.sparsity);
}

}  // namespace ftpim
