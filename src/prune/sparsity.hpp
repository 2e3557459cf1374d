// Sparsity utilities shared by the pruners.
#pragma once

#include <cstdint>
#include <string>

#include "src/nn/module.hpp"
#include "src/tensor/tensor.hpp"

namespace ftpim {

/// Binary keep-mask (1 = keep, 0 = pruned) plus bookkeeping.
struct PruneMask {
  const Param* param = nullptr;  ///< which parameter this mask belongs to
  Tensor mask;                   ///< same shape as the parameter
  [[nodiscard]] std::int64_t kept() const;
  [[nodiscard]] std::int64_t pruned() const;
};

/// Fraction of zero weights among crossbar weights of a network.
double model_sparsity(Module& root);

/// Builds a keep-mask retaining the `keep_count` largest-magnitude entries of
/// `values` (global threshold within the tensor).
Tensor magnitude_keep_mask(const Tensor& values, std::int64_t keep_count);

/// Projects `values` onto the sparsity constraint: zeroes all but the
/// `keep_count` largest-magnitude entries (Euclidean projection used by ADMM).
Tensor project_topk(const Tensor& values, std::int64_t keep_count);

/// Applies mask elementwise: value *= mask.
void apply_mask(Tensor& values, const Tensor& mask);

/// Human-readable per-layer sparsity report.
std::string sparsity_report(Module& root);

}  // namespace ftpim
