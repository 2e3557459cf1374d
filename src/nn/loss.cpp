#include "src/nn/loss.hpp"

#include "src/common/check.hpp"

#include <cmath>
#include <stdexcept>

namespace ftpim {

Tensor softmax_rows(const Tensor& logits) {
  FTPIM_CHECK(!(logits.rank() != 2), "softmax_rows: rank-2 required");
  const std::int64_t n = logits.dim(0), c = logits.dim(1);
  Tensor out(logits.shape());
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * c;
    float* dst = out.data() + i * c;
    float mx = row[0];
    for (std::int64_t j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (std::int64_t j = 0; j < c; ++j) {
      const float e = std::exp(row[j] - mx);
      dst[j] = e;
      denom += e;
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::int64_t j = 0; j < c; ++j) dst[j] *= inv;
  }
  return out;
}

LossResult SoftmaxCrossEntropy::forward(const Tensor& logits,
                                        const std::vector<std::int64_t>& labels) const {
  FTPIM_CHECK(!(logits.rank() != 2), "SoftmaxCrossEntropy: rank-2 logits");
  const std::int64_t n = logits.dim(0), c = logits.dim(1);
  FTPIM_CHECK(!(static_cast<std::int64_t>(labels.size()) != n), "SoftmaxCrossEntropy: label count mismatch");
  LossResult result;
  result.grad_logits = softmax_rows(logits);
  double loss = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t y = labels[static_cast<std::size_t>(i)];
    if (y < 0 || y >= c) throw std::out_of_range("SoftmaxCrossEntropy: label out of range");
    float* p = result.grad_logits.data() + i * c;
    loss -= std::log(std::max(p[y], 1e-12f));
    p[y] -= 1.0f;
    for (std::int64_t j = 0; j < c; ++j) p[j] *= inv_n;
  }
  result.loss = static_cast<float>(loss / static_cast<double>(n));
  return result;
}

float SoftmaxCrossEntropy::loss_only(const Tensor& logits,
                                     const std::vector<std::int64_t>& labels) const {
  const Tensor probs = softmax_rows(logits);
  const std::int64_t n = logits.dim(0), c = logits.dim(1);
  FTPIM_CHECK(!(static_cast<std::int64_t>(labels.size()) != n), "SoftmaxCrossEntropy: label count mismatch");
  double loss = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t y = labels[static_cast<std::size_t>(i)];
    if (y < 0 || y >= c) throw std::out_of_range("SoftmaxCrossEntropy: label out of range");
    loss -= std::log(std::max(probs.data()[i * c + y], 1e-12f));
  }
  return static_cast<float>(loss / static_cast<double>(n));
}

}  // namespace ftpim
