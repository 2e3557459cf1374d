#include "src/fleet/fleet_config.hpp"

#include <cmath>

#include "src/common/check.hpp"
#include "src/common/checkpoint.hpp"
#include "src/common/rng.hpp"

namespace ftpim::fleet {
namespace {

/// Log-uniform draw in [lo, hi]: uniform in log-space, so a decade near lo
/// gets as many devices as a decade near hi. hi <= lo pins the knob at lo
/// (the "every device identical" configuration needs no positivity check).
double log_uniform(Rng& rng, double lo, double hi) {
  if (hi <= lo) return lo;
  return lo * std::exp(rng.uniform_double() * std::log(hi / lo));
}

}  // namespace

const char* to_string(Datapath datapath) noexcept {
  switch (datapath) {
    case Datapath::kFloat: return "float";
    case Datapath::kQuantized: return "quantized";
  }
  return "unknown";
}

void ProfileDistribution::validate() const {
  FTPIM_CHECK(p_sa_min >= 0.0 && p_sa_max <= 0.5 && p_sa_min <= p_sa_max,
              "fleet profile: p_sa range [%.4g, %.4g] must satisfy 0 <= min <= max <= 0.5",
              p_sa_min, p_sa_max);
  FTPIM_CHECK(p_sa_max <= p_sa_min || p_sa_min > 0.0,
              "fleet profile: log-uniform p_sa needs p_sa_min > 0 when the range is non-empty");
  FTPIM_CHECK(aging_min >= 0.0 && aging_min <= aging_max,
              "fleet profile: aging range [%.4g, %.4g] must satisfy 0 <= min <= max", aging_min,
              aging_max);
  FTPIM_CHECK(aging_max <= aging_min || aging_min > 0.0,
              "fleet profile: log-uniform aging needs aging_min > 0 when the range is non-empty");
  FTPIM_CHECK(traffic_min >= 1 && traffic_min <= traffic_max,
              "fleet profile: traffic range [%lld, %lld] must satisfy 1 <= min <= max",
              static_cast<long long>(traffic_min), static_cast<long long>(traffic_max));
  FTPIM_CHECK(quantized_fraction >= 0.0 && quantized_fraction <= 1.0,
              "fleet profile: quantized_fraction %.3f outside [0, 1]", quantized_fraction);
}

void FleetConfig::validate() const {
  FTPIM_CHECK(num_devices >= 1, "fleet: num_devices %d must be >= 1", num_devices);
  FTPIM_CHECK(ticks >= 1, "fleet: ticks %lld must be >= 1", static_cast<long long>(ticks));
  FTPIM_CHECK(!sample_shape.empty(), "fleet: sample_shape must be non-empty");
  for (std::int64_t dim : sample_shape) {
    FTPIM_CHECK(dim >= 1, "fleet: sample_shape dims must be >= 1 (got %lld)",
                static_cast<long long>(dim));
  }
  FTPIM_CHECK(probe_samples >= 1, "fleet: probe_samples %d must be >= 1", probe_samples);
  FTPIM_CHECK(accuracy_floor >= 0.0 && accuracy_floor <= 1.0,
              "fleet: accuracy_floor %.3f outside [0, 1]", accuracy_floor);
  FTPIM_CHECK(interval_batches >= 1, "fleet: interval_batches %lld must be >= 1",
              static_cast<long long>(interval_batches));
  FTPIM_CHECK(sa0_fraction >= 0.0 && sa0_fraction <= 1.0, "fleet: sa0_fraction %.3f outside [0, 1]",
              sa0_fraction);
  FTPIM_CHECK(p_transient_per_tick >= 0.0 && p_transient_per_tick <= 0.5,
              "fleet: p_transient_per_tick %.4g outside [0, 0.5]", p_transient_per_tick);
  FTPIM_CHECK(checkpoint_every_ticks >= 1, "fleet: checkpoint_every_ticks %lld must be >= 1",
              static_cast<long long>(checkpoint_every_ticks));
  profile.validate();
  policy_config.validate();
}

void FleetConfig::encode(ByteWriter& out) const {
  // Canonical echo: every field the simulation's trajectory depends on, in
  // declaration order. checkpoint_path / checkpoint_every_ticks are
  // deliberately OMITTED — where and how often a sweep snapshots itself does
  // not change its results, and resuming from a relocated file must work.
  out.u32(static_cast<std::uint32_t>(num_devices));
  out.i64(ticks);
  out.u32(static_cast<std::uint32_t>(sample_shape.size()));
  for (std::int64_t dim : sample_shape) out.i64(dim);
  out.u32(static_cast<std::uint32_t>(probe_samples));
  out.f64(accuracy_floor);
  out.i64(interval_batches);
  out.f64(sa0_fraction);
  out.f64(p_transient_per_tick);
  out.u64(seed);
  out.f64(profile.p_sa_min);
  out.f64(profile.p_sa_max);
  out.f64(profile.aging_min);
  out.f64(profile.aging_max);
  out.i64(profile.traffic_min);
  out.i64(profile.traffic_max);
  out.f64(profile.quantized_fraction);
  out.u8(static_cast<std::uint8_t>(policy));
  out.u32(static_cast<std::uint32_t>(policy_config.min_samples));
  out.f64(policy_config.repair_below);
  out.i64(policy_config.refresh_every_ticks);
  out.u32(static_cast<std::uint32_t>(policy_config.max_scrub_retries));
  out.i64(quantized.tile_rows);
  out.i64(quantized.tile_cols);
  out.f32(quantized.range.g_min);
  out.f32(quantized.range.g_max);
  out.u32(static_cast<std::uint32_t>(quantized.levels));
  out.u32(static_cast<std::uint32_t>(quantized.adc.bits));
  out.f64(quantized.adc.range_factor);
  out.f32(injector.range.g_min);
  out.f32(injector.range.g_max);
  out.u32(static_cast<std::uint32_t>(injector.quant_levels));
}

DeviceProfile draw_profile(const FleetConfig& config, int device) {
  // Fixed draw ORDER (p_sa, aging, traffic, datapath) — reordering these
  // calls re-rolls every fleet, so it is part of the reproducibility
  // contract, like the stream ids.
  Rng rng(derive_seed(derive_seed(config.seed, kProfileStream), static_cast<std::uint64_t>(device)));
  DeviceProfile profile;
  profile.p_sa = log_uniform(rng, config.profile.p_sa_min, config.profile.p_sa_max);
  profile.aging_per_interval = log_uniform(rng, config.profile.aging_min, config.profile.aging_max);
  profile.batches_per_tick =
      config.profile.traffic_min +
      static_cast<std::int64_t>(rng.uniform_int(
          static_cast<std::uint64_t>(config.profile.traffic_max - config.profile.traffic_min + 1)));
  profile.datapath =
      rng.bernoulli(config.profile.quantized_fraction) ? Datapath::kQuantized : Datapath::kFloat;
  return profile;
}

}  // namespace ftpim::fleet
