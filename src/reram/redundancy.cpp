#include "src/reram/redundancy.hpp"

#include "src/common/check.hpp"

#include <algorithm>

namespace ftpim {
namespace {

float replica_readout(float weight, const DifferentialMapper& mapper,
                      const StuckAtFaultModel& model, Rng& rng,
                      std::int64_t* faulted_cells) {
  const FaultType f_pos = model.sample(rng);
  const FaultType f_neg = model.sample(rng);
  if (f_pos == FaultType::kNone && f_neg == FaultType::kNone) {
    // Fault-free replica: skip the conductance round trip so the readout is
    // bit-exact (matches apply_stuck_at_faults' clean path).
    return weight;
  }
  CellPair cells = mapper.to_cells(weight);
  const float g_min = mapper.range().g_min;
  const float g_max = mapper.range().g_max;
  if (f_pos != FaultType::kNone) {
    cells.g_pos = (f_pos == FaultType::kStuckOff) ? g_min : g_max;
    ++*faulted_cells;
  }
  if (f_neg != FaultType::kNone) {
    cells.g_neg = (f_neg == FaultType::kStuckOff) ? g_min : g_max;
    ++*faulted_cells;
  }
  return mapper.to_weight(cells);
}

}  // namespace

RedundantInjectionStats apply_faults_with_redundancy(Tensor& weights,
                                                     const StuckAtFaultModel& model,
                                                     const RedundancyConfig& config, Rng& rng) {
  FTPIM_CHECK(!(config.replicas < 1 || config.replicas % 2 == 0), "redundancy: replicas must be odd and >= 1");
  RedundantInjectionStats stats;
  stats.cells = 2ll * config.replicas * weights.numel();

  float w_max = weights.abs_max();
  if (w_max <= 0.0f) w_max = 1.0f;
  const DifferentialMapper mapper(config.range, w_max);

  std::vector<float> readouts(static_cast<std::size_t>(config.replicas));
  float* w = weights.data();
  for (std::int64_t i = 0; i < weights.numel(); ++i) {
    for (int r = 0; r < config.replicas; ++r) {
      readouts[static_cast<std::size_t>(r)] =
          replica_readout(w[i], mapper, model, rng, &stats.faulted_cells);
    }
    auto mid = readouts.begin() + config.replicas / 2;
    std::nth_element(readouts.begin(), mid, readouts.end());
    const float median = *mid;
    if (median != w[i]) ++stats.affected_weights;
    w[i] = median;
  }
  return stats;
}

RedundantFaultGuard::RedundantFaultGuard(Module& model_root, const StuckAtFaultModel& model,
                                         const RedundancyConfig& config, Rng& rng) {
  for (Param* p : parameters_of(model_root)) {
    if (p->kind == ParamKind::kCrossbarWeight) params_.push_back(p);
  }
  clean_.reserve(params_.size());
  for (Param* p : params_) {
    clean_.push_back(p->value);
    const RedundantInjectionStats s = apply_faults_with_redundancy(p->value, model, config, rng);
    stats_.cells += s.cells;
    stats_.faulted_cells += s.faulted_cells;
    stats_.affected_weights += s.affected_weights;
  }
}

void RedundantFaultGuard::restore() {
  if (restored_) return;
  for (std::size_t k = 0; k < params_.size(); ++k) params_[k]->value = clean_[k];
  restored_ = true;
}

RedundantFaultGuard::~RedundantFaultGuard() { restore(); }

}  // namespace ftpim
