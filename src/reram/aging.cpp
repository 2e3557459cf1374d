#include "src/reram/aging.hpp"

#include "src/common/check.hpp"
#include "src/common/rng.hpp"

namespace ftpim {
namespace {

/// Extra constant folded into the per-interval stream so aging streams never
/// collide with the injection streams derived from the same device seed.
constexpr std::uint64_t kAgingStreamSalt = 0xa91d;

}  // namespace

void AgingConfig::validate() const {
  FTPIM_CHECK(p_new_per_interval >= 0.0 && p_new_per_interval <= 1.0,
              "AgingConfig: p_new_per_interval %g outside [0,1]", p_new_per_interval);
  FTPIM_CHECK_GT(interval_batches, std::int64_t{0}, "AgingConfig: interval_batches");
  FTPIM_CHECK(sa0_fraction >= 0.0 && sa0_fraction <= 1.0,
              "AgingConfig: sa0_fraction outside [0,1]");
}

AgingModel::AgingModel(const AgingConfig& config) : config_(config) { config.validate(); }

std::int64_t AgingModel::intervals_at(std::int64_t served_batches) const noexcept {
  if (served_batches <= 0) return 0;
  return served_batches / config_.interval_batches;
}

DefectMap AgingModel::interval_faults(std::int64_t cell_count, std::uint64_t device_stream,
                                      std::int64_t interval) const {
  FTPIM_CHECK_GE(interval, std::int64_t{0}, "AgingModel::interval_faults: interval");
  if (!config_.enabled()) return DefectMap::empty(cell_count);
  const StuckAtFaultModel model(config_.p_new_per_interval, config_.sa0_fraction);
  Rng rng(derive_seed(derive_seed(config_.seed, device_stream),
                      static_cast<std::uint64_t>(interval) + kAgingStreamSalt));
  return DefectMap::sample(cell_count, model, rng);
}

std::int64_t AgingModel::evolve(DefectMap& map, std::uint64_t device_stream,
                                std::int64_t from_interval, std::int64_t to_interval) const {
  FTPIM_CHECK_GE(from_interval, std::int64_t{0}, "AgingModel::evolve: from_interval");
  FTPIM_CHECK_GE(to_interval, from_interval,
                 "AgingModel::evolve: to_interval must not precede from_interval");
  std::int64_t added = 0;
  for (std::int64_t k = from_interval; k < to_interval; ++k) {
    added += map.merge_from(interval_faults(map.cell_count(), device_stream, k));
  }
  return added;
}

}  // namespace ftpim
