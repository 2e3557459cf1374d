#include "src/reram/conductance.hpp"

#include "src/common/check.hpp"

#include <algorithm>

#include "src/tensor/tensor.hpp"

namespace ftpim {

float tensor_w_max(const Tensor& weights) {
  const float m = weights.abs_max();
  return m > 0.0f ? m : 1.0f;
}

DifferentialMapper::DifferentialMapper(ConductanceRange range, float w_max)
    : range_(range), w_max_(w_max) {
  range_.validate();
  FTPIM_CHECK(!(!(w_max > 0.0f)), "DifferentialMapper: w_max must be > 0");
  w_to_g_ = range_.span() / w_max_;
  g_to_w_ = w_max_ / range_.span();
}

CellPair DifferentialMapper::to_cells(float weight) const noexcept {
  const float clamped = std::clamp(weight, -w_max_, w_max_);
  CellPair cells;
  cells.g_pos = range_.g_min + (clamped > 0.0f ? clamped * w_to_g_ : 0.0f);
  cells.g_neg = range_.g_min + (clamped < 0.0f ? -clamped * w_to_g_ : 0.0f);
  return cells;
}

float DifferentialMapper::to_weight(const CellPair& cells) const noexcept {
  return (cells.g_pos - cells.g_neg) * g_to_w_;
}

}  // namespace ftpim
