// Fleet lifetime study: a thousand virtual edge devices, four repair
// policies, survival curves, and a crash-safe resumable sweep.
//
// Each device is an independent virtual PIM accelerator: its own stuck-at
// defect rate, wear-out rate, traffic level, and datapath (int8 crossbars
// with ABFT, or the float fault-folding path), all drawn deterministically
// from FleetConfig::seed. The simulator drives every device through the
// serve -> age -> upset -> probe -> policy lifecycle tick by tick and
// aggregates the fleet's history into Kaplan-Meier survival curves and a
// maintenance bill, so the four policies can be compared on bit-identical
// fleets.
//
// The last section kills a checkpointing sweep halfway and resumes it from
// the FTCK file, verifying the resumed fleet's timeline is bit-exact against
// the uninterrupted run — the property that makes week-long sweeps safe to
// preempt.
//
// Knobs: FTPIM_FLEET_DEVICES (default 1000), FTPIM_FLEET_TICKS (default 24),
//        FTPIM_THREADS.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/common/checkpoint.hpp"
#include "src/common/config.hpp"
#include "src/common/parallel.hpp"
#include "src/common/timer.hpp"
#include "src/core/table_printer.hpp"
#include "src/fleet/fleet_simulator.hpp"
#include "src/models/mlp.hpp"

namespace {

using namespace ftpim;
using namespace ftpim::fleet;

FleetConfig study_config(int devices, std::int64_t ticks, RepairPolicyKind policy) {
  FleetConfig cfg;
  cfg.num_devices = devices;
  cfg.ticks = ticks;
  cfg.sample_shape = {16};
  cfg.probe_samples = 16;
  cfg.accuracy_floor = 0.55;  // a device below 55% probe accuracy is dead
  cfg.interval_batches = 16;
  cfg.p_transient_per_tick = 0.002;
  cfg.seed = 4242;
  // Heterogeneous fleet: defect rate, wear rate and traffic each span a
  // log-uniform/uniform range; a quarter of the fleet runs the float path.
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

std::vector<std::uint8_t> timeline_bytes(const FleetSimulator& sim) {
  ByteWriter out;
  for (const TickAggregate& agg : sim.timeline()) agg.encode(out);
  return out.take();
}

}  // namespace

int main() {
  const int devices = env_int("FTPIM_FLEET_DEVICES", 1000, 1);
  const auto ticks = static_cast<std::int64_t>(env_int("FTPIM_FLEET_TICKS", 24, 1));
  const auto model = make_mlp({16, 24, 4}, 7);

  std::printf("=== fleet lifetime study: %d devices, %lld ticks, 4 repair policies ===\n",
              devices, static_cast<long long>(ticks));
  std::printf("model: MLP 16-24-4 | threads: %d\n\n", num_threads());

  TablePrinter table("policy comparison (bit-identical fleets)",
                     {"policy", "surv%", "life", "repairs", "scrubs", "detect", "cost",
                      "p50acc", "wall_s"});
  for (const RepairPolicyKind policy : kAllRepairPolicies) {
    FleetSimulator sim(*model, study_config(devices, ticks, policy));
    Timer wall;
    const FleetSummary s = sim.run();
    const double secs = wall.seconds();
    std::printf("%-22s S(t) %s  %.1f%% survive\n", to_string(policy),
                survival_sparkline(survival_curve(sim.timeline())).c_str(),
                s.survival_fraction * 100.0);
    table.add_row(to_string(policy),
                  {s.survival_fraction * 100.0, s.mean_lifetime_ticks,
                   static_cast<double>(s.repairs), static_cast<double>(s.scrubs),
                   static_cast<double>(s.detections), s.total_cost, s.final_acc_p50, secs});
  }
  std::printf("\n%s\n", table.render(0, 2).c_str());
  std::printf("cost = repairs x %.0f + scrubs x %.0f (device swaps vs re-programming)\n\n",
              kRepairCost, kScrubCost);

  // --- Crash-safe sweeps: kill at half the horizon, resume, compare --------
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "ftpim_fleet_lifetime";
  std::filesystem::create_directories(dir);
  FleetConfig cfg = study_config(devices, ticks, RepairPolicyKind::kDetectionDrivenScrub);
  cfg.checkpoint_path = (dir / "sweep.ftck").string();
  cfg.checkpoint_every_ticks = ticks / 2;

  FleetConfig clean = cfg;
  clean.checkpoint_path.clear();
  FleetSimulator uninterrupted(*model, clean);
  uninterrupted.run();

  {
    FleetSimulator doomed(*model, cfg);
    for (std::int64_t t = 0; t < ticks / 2; ++t) doomed.step();
    std::printf("sweep 'crashed' at tick %lld/%lld; checkpoint: %s\n",
                static_cast<long long>(doomed.next_tick()), static_cast<long long>(ticks),
                cfg.checkpoint_path.c_str());
  }  // the process state is gone — only the FTCK file survives

  FleetSimulator resumed(*model, cfg);
  resumed.resume(cfg.checkpoint_path);
  std::printf("resumed at tick %lld, running to the horizon...\n",
              static_cast<long long>(resumed.next_tick()));
  resumed.run();

  const bool bit_exact = timeline_bytes(resumed) == timeline_bytes(uninterrupted) &&
                         resumed.death_ticks() == uninterrupted.death_ticks();
  std::printf("resumed timeline vs uninterrupted run: %s\n",
              bit_exact ? "bit-exact" : "MISMATCH");
  return bit_exact ? 0 : 1;
}
