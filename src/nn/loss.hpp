// Softmax cross-entropy loss with fused gradient.
#pragma once

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.hpp"

namespace ftpim {

struct LossResult {
  float loss = 0.0f;     ///< mean cross-entropy over the batch
  Tensor grad_logits;    ///< d loss / d logits, [N, classes]
};

/// Mean softmax cross-entropy against one-hot labels.
class SoftmaxCrossEntropy {
 public:
  /// logits: [N, classes]; labels: N class indices.
  [[nodiscard]] LossResult forward(const Tensor& logits,
                                   const std::vector<std::int64_t>& labels) const;

  /// Loss only (no gradient) — for evaluation.
  [[nodiscard]] float loss_only(const Tensor& logits,
                                const std::vector<std::int64_t>& labels) const;
};

/// Numerically-stable row softmax: [N,C] -> [N,C].
Tensor softmax_rows(const Tensor& logits);

}  // namespace ftpim
