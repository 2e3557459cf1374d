#include "src/prune/sparsity.hpp"

#include "src/common/check.hpp"

#include <cmath>
#include <sstream>

#include "src/tensor/tensor_ops.hpp"

namespace ftpim {

std::int64_t PruneMask::kept() const {
  std::int64_t n = 0;
  const float* m = mask.data();
  for (std::int64_t i = 0; i < mask.numel(); ++i) {
    if (m[i] != 0.0f) ++n;
  }
  return n;
}

std::int64_t PruneMask::pruned() const { return mask.numel() - kept(); }

double model_sparsity(Module& root) {
  std::int64_t zeros = 0, total = 0;
  for (const Param* p : crossbar_params(root)) {
    zeros += count_zeros(p->value);
    total += p->value.numel();
  }
  return total > 0 ? static_cast<double>(zeros) / static_cast<double>(total) : 0.0;
}

Tensor magnitude_keep_mask(const Tensor& values, std::int64_t keep_count) {
  FTPIM_CHECK(!(keep_count < 0 || keep_count > values.numel()), "magnitude_keep_mask: keep_count out of range");
  Tensor mask(values.shape());
  if (keep_count == 0) return mask;
  const float threshold = kth_largest_abs(values, keep_count);
  const float* v = values.data();
  float* m = mask.data();
  std::int64_t kept = 0;
  // Two passes: strictly-above first, then fill ties at the threshold until
  // exactly keep_count entries are kept (deterministic: first-index order).
  for (std::int64_t i = 0; i < values.numel(); ++i) {
    if (std::fabs(v[i]) > threshold) {
      m[i] = 1.0f;
      ++kept;
    }
  }
  for (std::int64_t i = 0; i < values.numel() && kept < keep_count; ++i) {
    if (m[i] == 0.0f && std::fabs(v[i]) == threshold) {
      m[i] = 1.0f;
      ++kept;
    }
  }
  return mask;
}

Tensor project_topk(const Tensor& values, std::int64_t keep_count) {
  const Tensor mask = magnitude_keep_mask(values, keep_count);
  Tensor out = values;
  apply_mask(out, mask);
  return out;
}

void apply_mask(Tensor& values, const Tensor& mask) {
  FTPIM_CHECK(!(values.shape() != mask.shape()), "apply_mask: shape mismatch");
  float* v = values.data();
  const float* m = mask.data();
  for (std::int64_t i = 0; i < values.numel(); ++i) v[i] *= m[i];
}

std::string sparsity_report(Module& root) {
  std::ostringstream oss;
  oss << "layer sparsity:\n";
  for (const auto& [name, p] : named_parameters_of(root)) {
    if (p->kind != ParamKind::kCrossbarWeight) continue;
    const double s =
        static_cast<double>(count_zeros(p->value)) / static_cast<double>(p->value.numel());
    oss << "  " << name << "  " << shape_to_string(p->value.shape()) << "  "
        << static_cast<int>(s * 1000.0) / 10.0 << "%\n";
  }
  oss << "  overall: " << static_cast<int>(model_sparsity(root) * 1000.0) / 10.0 << "%\n";
  return oss.str();
}

}  // namespace ftpim
