// Fleet phase: FleetSimulator sweeps under detection_driven_scrub, repeated
// until the phase budget is spent; every sweep of one config must produce
// the same summary, and a one-thread re-run must produce the same timeline.
#include <memory>

#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/fleet/fleet_simulator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fl = ftpim::fleet;

fl::FleetConfig fleet_config(const WorkloadSpec& spec, const ftpim::Shape& sample_shape,
                             std::uint64_t seed) {
  fl::FleetConfig cfg;
  cfg.num_devices = spec.devices;
  cfg.ticks = spec.ticks;
  cfg.sample_shape = sample_shape;
  cfg.probe_samples = 16;
  cfg.accuracy_floor = spec.fleet_floor;
  cfg.interval_batches = 16;
  cfg.p_transient_per_tick = 0.002;
  cfg.seed = ftpim::derive_seed(seed, 0xf1ee7);
  cfg.profile.p_sa_min = 0.005;
  cfg.profile.p_sa_max = 0.02;
  cfg.profile.aging_min = 1e-4;
  cfg.profile.aging_max = 1e-3;
  cfg.profile.traffic_min = 8;
  cfg.profile.traffic_max = 32;
  cfg.profile.quantized_fraction = spec.quantized_fraction;
  cfg.policy = fl::RepairPolicyKind::kDetectionDrivenScrub;
  cfg.policy_config.max_scrub_retries = 1;
  cfg.quantized = engine_config(/*abft=*/true);
  cfg.quantized.adc.bits = 0;
  return cfg;
}

namespace {

std::int64_t count_deaths(const fl::FleetSimulator& sim) {
  std::int64_t deaths = 0;
  for (const std::int64_t t : sim.death_ticks()) deaths += t >= 0 ? 1 : 0;
  return deaths;
}

bool same_summary(const fl::FleetSummary& a, const fl::FleetSummary& b) {
  return a.survivors == b.survivors && a.survival_fraction == b.survival_fraction &&
         a.repairs == b.repairs && a.scrubs == b.scrubs && a.detections == b.detections &&
         a.mean_lifetime_ticks == b.mean_lifetime_ticks && a.final_acc_p50 == b.final_acc_p50;
}

bool same_tick(const fl::TickAggregate& a, const fl::TickAggregate& b) {
  return a.tick == b.tick && a.alive == b.alive && a.deaths == b.deaths &&
         a.acc_mean == b.acc_mean && a.acc_p10 == b.acc_p10 && a.acc_p50 == b.acc_p50 &&
         a.acc_p90 == b.acc_p90 && a.repairs == b.repairs && a.scrubs == b.scrubs &&
         a.detections == b.detections && a.aged_cells == b.aged_cells &&
         a.transient_cells == b.transient_cells;
}

}  // namespace

FleetPhase run_fleet_phase(const ftpim::Module& model, const fl::FleetConfig& config,
                           double budget_s, Tracer* tracer, Outcome& out) {
  FleetPhase phase;
  const std::int64_t start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(budget_s * 1e9);
  std::int64_t last_ns = 0;
  // Another sweep only if it is expected to end inside the budget.
  for (std::int64_t sweep = 0; sweep == 0 || now_ns() - start + last_ns <= budget_ns; ++sweep) {
    const std::int64_t t0 = now_ns();
    fl::FleetSimulator sim(model, config);
    const std::int64_t t1 = now_ns();
    fl::FleetSummary summary;
    if (tracer != nullptr) {
      const std::int64_t root = tracer->add("fleet.sweep", t1, t1, -1, sweep);
      while (sim.next_tick() < config.ticks) {
        const std::int64_t a = now_ns();
        sim.step();
        const std::int64_t b = now_ns();
        tracer->add("fleet.step", a, b, root, sim.next_tick() - 1);
        phase.tick_ms.push_back(static_cast<double>(b - a) * 1e-6);
      }
      summary = sim.summary();
      tracer->set_end(root, now_ns());
    } else {
      summary = sim.run();
    }
    const std::int64_t t2 = now_ns();
    last_ns = t2 - t0;
    const std::int64_t device_ticks = static_cast<std::int64_t>(config.num_devices) * config.ticks;
    phase.construct_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    phase.ticks_per_s.push_back(static_cast<double>(device_ticks) /
                                (static_cast<double>(t2 - t1) * 1e-9));
    phase.device_ticks += device_ticks;
    const std::int64_t deaths = count_deaths(sim);
    if (sweep == 0) {
      phase.summary = summary;
      phase.deaths = deaths;
      phase.timeline = sim.timeline();
    } else {
      out.check(same_summary(summary, phase.summary) && deaths == phase.deaths,
                "fleet: a repeated sweep of the same config produced a different summary");
    }
  }
  return phase;
}

void check_fleet_reference(const ftpim::Module& model, const fl::FleetConfig& config,
                           const std::vector<fl::TickAggregate>& reference, std::int64_t ticks,
                           Outcome& out) {
  ftpim::set_num_threads(1);
  fl::FleetSimulator sim(model, config);
  while (sim.next_tick() < ticks) sim.step();
  ftpim::set_num_threads(0);
  bool same = sim.timeline().size() == static_cast<std::size_t>(ticks) &&
              reference.size() >= static_cast<std::size_t>(ticks);
  for (std::int64_t t = 0; same && t < ticks; ++t) {
    same = same_tick(sim.timeline()[static_cast<std::size_t>(t)],
                     reference[static_cast<std::size_t>(t)]);
  }
  out.check(same, "fleet: the one-thread timeline differs from the default thread count");
}

}  // namespace perfbench
