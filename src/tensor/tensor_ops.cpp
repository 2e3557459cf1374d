#include "src/tensor/tensor_ops.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/check.hpp"

namespace ftpim {

std::int64_t argmax_row(const Tensor& logits, std::int64_t row) {
  FTPIM_CHECK_EQ(logits.rank(), std::size_t{2}, "argmax_row: rank-2 tensor required");
  FTPIM_DCHECK_GE(row, 0);
  FTPIM_DCHECK_LT(row, logits.dim(0));
  const std::int64_t cols = logits.dim(1);
  const float* p = logits.data() + row * cols;
  std::int64_t best = 0;
  for (std::int64_t j = 1; j < cols; ++j) {
    if (p[j] > p[best]) best = j;
  }
  return best;
}

std::int64_t count_zeros(const Tensor& a) {
  std::int64_t zeros = 0;
  const float* p = a.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (p[i] == 0.0f) ++zeros;
  }
  return zeros;
}

float kth_largest_abs(const Tensor& a, std::int64_t k) {
  FTPIM_CHECK_GE(k, std::int64_t{1}, "kth_largest_abs: k out of range");
  FTPIM_CHECK_LE(k, a.numel(), "kth_largest_abs: k out of range");
  std::vector<float> mags(static_cast<std::size_t>(a.numel()));
  const float* p = a.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) mags[static_cast<std::size_t>(i)] = std::fabs(p[i]);
  auto nth = mags.begin() + static_cast<std::ptrdiff_t>(k - 1);
  std::nth_element(mags.begin(), nth, mags.end(), std::greater<float>());
  return *nth;
}

}  // namespace ftpim
