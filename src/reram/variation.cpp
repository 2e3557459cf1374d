#include "src/reram/variation.hpp"

#include <algorithm>

namespace ftpim {

void apply_conductance_variation(Tensor& weights, const VariationConfig& config, Rng& rng) {
  const DifferentialMapper mapper(config.range, tensor_w_max(weights));
  const float g_min = config.range.g_min;
  const float g_max = config.range.g_max;

  float* w = weights.data();
  for (std::int64_t i = 0; i < weights.numel(); ++i) {
    CellPair cells = mapper.to_cells(w[i]);
    cells.g_pos = std::clamp(cells.g_pos * rng.lognormal(0.0f, config.sigma), g_min, g_max);
    cells.g_neg = std::clamp(cells.g_neg * rng.lognormal(0.0f, config.sigma), g_min, g_max);
    w[i] = mapper.to_weight(cells);
  }
}

void apply_variation_to_model(Module& model_root, const VariationConfig& config, Rng& rng) {
  for (Param* p : crossbar_params(model_root)) apply_conductance_variation(p->value, config, rng);
}

}  // namespace ftpim
