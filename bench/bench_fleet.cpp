// Fleet-at-scale sweep throughput: how fast the fault-lifecycle simulator
// (src/fleet) pushes a large virtual fleet to its horizon, and what the four
// repair policies buy in survival vs maintenance cost on an identical fleet.
//
// The table is the policy comparison DESIGN.md §15 describes (survival,
// mean lifetime, maintenance bill per policy on bit-identical devices); the
// JSON artifact records the perf trajectory — wall seconds and device-ticks
// per second per policy — so fleet-scale regressions show up in diffs
// (BENCH_fleet.json is a committed artifact like BENCH_gemm.json).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/common/config.hpp"
#include "src/common/parallel.hpp"
#include "src/common/timer.hpp"
#include "src/core/table_printer.hpp"
#include "src/fleet/fleet_simulator.hpp"
#include "src/models/mlp.hpp"

namespace {

using namespace ftpim;
using namespace ftpim::fleet;

FleetConfig sweep_config(int devices, std::int64_t ticks, RepairPolicyKind policy) {
  FleetConfig cfg;
  cfg.num_devices = devices;
  cfg.ticks = ticks;
  cfg.sample_shape = {16};
  cfg.probe_samples = 16;
  cfg.accuracy_floor = 0.55;
  cfg.interval_batches = 16;
  cfg.p_transient_per_tick = 0.002;
  cfg.seed = 2024;
  cfg.profile.p_sa_min = 0.01;
  cfg.profile.p_sa_max = 0.08;
  cfg.profile.aging_min = 0.001;
  cfg.profile.aging_max = 0.01;
  cfg.profile.traffic_min = 8;
  cfg.profile.traffic_max = 32;
  cfg.profile.quantized_fraction = 0.75;
  cfg.policy = policy;
  cfg.policy_config.refresh_every_ticks = 4;
  cfg.policy_config.max_scrub_retries = 1;
  cfg.quantized.adc.bits = 0;
  return cfg;
}

struct PolicyResult {
  FleetSummary summary;
  double wall_s = 0.0;
  double device_ticks_per_s = 0.0;
};

}  // namespace

int main() {
  const RunScale scale = run_scale();
  const int devices = env_int("FTPIM_FLEET_DEVICES", scale.name == "quick" ? 256 : 1000, 1);
  const auto ticks = static_cast<std::int64_t>(env_int("FTPIM_FLEET_TICKS", 16, 1));

  std::printf("=== fleet lifecycle sweep: %d devices x %lld ticks per policy ===\n", devices,
              static_cast<long long>(ticks));
  std::printf("model: MLP 16-24-4 | scale: %s | threads: %d\n\n", scale.name.c_str(),
              num_threads());

  const auto model = make_mlp({16, 24, 4}, 7);

  bench::BenchJsonWriter json("fleet");
  json.meta()
      .num("threads", num_threads())
      .num("devices", devices)
      .num("ticks", static_cast<double>(ticks))
      .str("scale", scale.name);

  TablePrinter table("policy comparison (identical fleet per row)",
                     {"policy", "surv%", "life", "repairs", "scrubs", "cost", "p50acc", "wall_s",
                      "devtick/s"});
  std::vector<PolicyResult> results;
  for (const RepairPolicyKind policy : kAllRepairPolicies) {
    FleetSimulator sim(*model, sweep_config(devices, ticks, policy));
    Timer wall;
    PolicyResult res;
    res.summary = sim.run();
    res.wall_s = wall.seconds();
    res.device_ticks_per_s =
        static_cast<double>(devices) * static_cast<double>(ticks) / res.wall_s;
    results.push_back(res);

    table.add_row(to_string(policy),
                  {res.summary.survival_fraction * 100.0, res.summary.mean_lifetime_ticks,
                   static_cast<double>(res.summary.repairs),
                   static_cast<double>(res.summary.scrubs), res.summary.total_cost,
                   res.summary.final_acc_p50, res.wall_s, res.device_ticks_per_s});
    json.point()
        .str("policy", to_string(policy))
        .num("devices", devices)
        .num("ticks", static_cast<double>(ticks))
        .num("survival_fraction", res.summary.survival_fraction)
        .num("mean_lifetime_ticks", res.summary.mean_lifetime_ticks)
        .num("repairs", static_cast<double>(res.summary.repairs))
        .num("scrubs", static_cast<double>(res.summary.scrubs))
        .num("total_cost", res.summary.total_cost)
        .num("wall_seconds", res.wall_s)
        .num("device_ticks_per_sec", res.device_ticks_per_s);
  }
  std::printf("%s\n", table.render(0, 2).c_str());

  // Shape checks: the qualitative policy ordering the fleet story predicts.
  bench::ShapeCheck check;
  const FleetSummary& never = results[0].summary;       // kNeverRepair
  const FleetSummary& gated = results[1].summary;       // kCanaryGated
  const FleetSummary& scheduled = results[2].summary;   // kScheduledRefresh
  const FleetSummary& detection = results[3].summary;   // kDetectionDrivenScrub
  check.expect(never.total_cost == 0.0, "never_repair spends nothing on maintenance");
  check.expect(never.survival_fraction < 1.0, "unmaintained fleet loses devices");
  check.expect(gated.survival_fraction >= never.survival_fraction,
               "canary-gated repair survives at least the unmaintained fleet");
  check.expect(gated.mean_lifetime_ticks >= never.mean_lifetime_ticks,
               "repairs extend mean device lifetime");
  check.expect(scheduled.scrubs > 0, "scheduled policy actually refreshes");
  check.expect(detection.detections > 0, "quantized devices ring under faults");
  check.summary();

  json.write(env_string("FTPIM_BENCH_JSON", "BENCH_fleet.json"));
  return check.failed == 0 ? 0 : 1;
}
