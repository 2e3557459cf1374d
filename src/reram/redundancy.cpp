#include "src/reram/redundancy.hpp"

#include "src/common/check.hpp"
#include "src/reram/quantizer.hpp"

#include <algorithm>
#include <vector>

namespace ftpim {

InjectionStats apply_faults_with_redundancy(Tensor& weights, const StuckAtFaultModel& model,
                                            const RedundancyConfig& config, Rng& rng) {
  FTPIM_CHECK(!(config.replicas < 1 || config.replicas % 2 == 0), "redundancy: replicas must be odd and >= 1");
  InjectionStats stats;
  stats.cells = 2ll * config.replicas * weights.numel();

  const DifferentialMapper mapper(config.range, tensor_w_max(weights));
  const ConductanceQuantizer analog(config.range, 0);
  std::vector<float> readouts(static_cast<std::size_t>(config.replicas));
  float* w = weights.data();
  for (std::int64_t i = 0; i < weights.numel(); ++i) {
    for (float& readout : readouts) {
      const FaultType f_pos = model.sample(rng);
      const FaultType f_neg = model.sample(rng);
      stats.faulted_cells += (f_pos != FaultType::kNone) + (f_neg != FaultType::kNone);
      readout = stuck_pair_readback(w[i], f_pos, f_neg, mapper, analog);
    }
    auto mid = readouts.begin() + config.replicas / 2;
    std::nth_element(readouts.begin(), mid, readouts.end());
    const float median = *mid;
    if (median != w[i]) ++stats.affected_weights;
    w[i] = median;
  }
  return stats;
}

InjectionStats apply_redundancy_to_model(Module& model_root, const StuckAtFaultModel& model,
                                         const RedundancyConfig& config, Rng& rng) {
  InjectionStats total;
  for (Param* p : crossbar_params(model_root)) {
    total += apply_faults_with_redundancy(p->value, model, config, rng);
  }
  return total;
}

}  // namespace ftpim
