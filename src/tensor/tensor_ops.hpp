// Reductions and statistics over Tensor.
#pragma once

#include <cstdint>

#include "src/tensor/tensor.hpp"

namespace ftpim {

/// Index of the maximum element of row r in a rank-2 tensor.
std::int64_t argmax_row(const Tensor& logits, std::int64_t row);

/// Number of exactly-zero elements.
std::int64_t count_zeros(const Tensor& a);

/// k-th largest absolute value (k>=1); used by pruning projections.
float kth_largest_abs(const Tensor& a, std::int64_t k);

}  // namespace ftpim
