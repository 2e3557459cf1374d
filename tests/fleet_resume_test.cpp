// Kill-and-resume regression for the fleet simulator: a sweep interrupted at
// any checkpoint boundary and resumed — at the SAME or a DIFFERENT
// FTPIM_THREADS setting — must reproduce the uninterrupted run's timeline
// bit-exactly. Also exercises the refusal paths: config/seed mismatch and
// resume-after-step. Suite name FleetResume* rides scripts/ci.sh's crash
// subset alongside FtResume.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/checkpoint.hpp"
#include "src/common/parallel.hpp"
#include "src/fleet/fleet_simulator.hpp"
#include "src/models/mlp.hpp"
#include "test_util.hpp"

namespace ftpim::fleet {
namespace {

FleetConfig resume_fleet() {
  FleetConfig cfg;
  cfg.num_devices = 10;
  cfg.ticks = 6;
  cfg.sample_shape = {16};
  cfg.probe_samples = 12;
  cfg.accuracy_floor = 0.55;
  cfg.interval_batches = 16;
  cfg.p_transient_per_tick = 0.004;  // transient replay must round-trip too
  cfg.seed = 77;
  cfg.profile.p_sa_min = 0.01;
  cfg.profile.p_sa_max = 0.06;
  cfg.profile.aging_min = 0.001;
  cfg.profile.aging_max = 0.008;
  cfg.profile.traffic_min = 8;
  cfg.profile.traffic_max = 24;
  cfg.profile.quantized_fraction = 0.8;  // mixed fleet: float devices resume too
  cfg.policy = RepairPolicyKind::kDetectionDrivenScrub;  // scrubs AND repairs
  cfg.policy_config.refresh_every_ticks = 2;
  cfg.policy_config.max_scrub_retries = 1;
  cfg.quantized.adc.bits = 0;
  cfg.checkpoint_every_ticks = 2;
  return cfg;
}

std::unique_ptr<Module> fleet_model() { return make_mlp({16, 24, 4}, 7); }

std::vector<std::uint8_t> timeline_bytes(const FleetSimulator& sim) {
  ByteWriter out;
  for (const TickAggregate& agg : sim.timeline()) agg.encode(out);
  return out.take();
}

/// Uninterrupted-sweep artifacts the resumed runs must reproduce.
struct Baseline {
  std::vector<std::uint8_t> timeline;
  std::vector<std::int64_t> deaths;
  FleetSummary summary;
};

Baseline run_uninterrupted(const Module& model, const FleetConfig& cfg) {
  FleetSimulator sim(model, cfg);
  Baseline base;
  base.summary = sim.run();
  base.timeline = timeline_bytes(sim);
  base.deaths = sim.death_ticks();
  return base;
}

/// Steps a checkpointing sweep to tick `kill_at`, abandons it (destructor ==
/// crash: the checkpoint file is all that survives), then resumes a fresh
/// simulator from that file and runs it to the horizon.
void kill_and_resume(const Module& model, const FleetConfig& cfg, std::int64_t kill_at,
                     const Baseline& base) {
  {
    FleetSimulator doomed(model, cfg);
    for (std::int64_t t = 0; t < kill_at; ++t) doomed.step();
    ASSERT_TRUE(std::filesystem::exists(cfg.checkpoint_path))
        << "no checkpoint on disk at kill tick " << kill_at;
  }

  FleetSimulator resumed(model, cfg);
  resumed.resume(cfg.checkpoint_path);
  EXPECT_EQ(resumed.next_tick(), kill_at) << "cursor must land on the kill tick";
  const FleetSummary summary = resumed.run();

  EXPECT_EQ(timeline_bytes(resumed), base.timeline) << "killed at tick " << kill_at;
  EXPECT_EQ(resumed.death_ticks(), base.deaths);
  EXPECT_EQ(summary.survivors, base.summary.survivors);
  EXPECT_EQ(summary.repairs, base.summary.repairs);
  EXPECT_EQ(summary.scrubs, base.summary.scrubs);
  EXPECT_EQ(summary.detections, base.summary.detections);
  EXPECT_DOUBLE_EQ(summary.final_acc_p50, base.summary.final_acc_p50);
}

TEST(FleetResume, KillAtEveryBoundaryReproducesTheSweepBitExactly) {
  const auto model = fleet_model();
  FleetConfig cfg = resume_fleet();
  cfg.checkpoint_path = (testing::scratch_dir("boundaries") / "sweep.ftck").string();

  FleetConfig clean = cfg;
  clean.checkpoint_path.clear();  // baseline never touches the disk
  const Baseline base = run_uninterrupted(*model, clean);
  EXPECT_LT(base.summary.survival_fraction, 1.0) << "sweep must exercise deaths";
  EXPECT_GT(base.summary.scrubs + base.summary.repairs, 0) << "and maintenance";

  // Every cadence boundary, including the horizon itself (resume-then-run
  // with nothing left to simulate must still hand back the same summary).
  for (std::int64_t kill_at : {std::int64_t{2}, std::int64_t{4}, std::int64_t{6}}) {
    kill_and_resume(*model, cfg, kill_at, base);
  }
}

TEST(FleetResume, ResumeIsBitExactAcrossThreadCounts) {
  const auto model = fleet_model();
  FleetConfig cfg = resume_fleet();
  cfg.checkpoint_path = (testing::scratch_dir("threads") / "sweep.ftck").string();

  FleetConfig clean = cfg;
  clean.checkpoint_path.clear();
  set_num_threads(1);
  const Baseline base = run_uninterrupted(*model, clean);

  // Checkpoint written single-threaded, resumed at 4 threads — and the other
  // way around. Both must reproduce the single-threaded baseline bit-exactly.
  set_num_threads(1);
  {
    FleetSimulator doomed(*model, cfg);
    doomed.step();
    doomed.step();
  }
  set_num_threads(4);
  {
    FleetSimulator resumed(*model, cfg);
    resumed.resume(cfg.checkpoint_path);
    resumed.run();
    EXPECT_EQ(timeline_bytes(resumed), base.timeline) << "1-thread ckpt, 4-thread resume";
    EXPECT_EQ(resumed.death_ticks(), base.deaths);
  }

  // 4-thread sweep overwrites the checkpoint at tick 4; resume serial.
  {
    FleetSimulator doomed(*model, cfg);
    for (int t = 0; t < 4; ++t) doomed.step();
  }
  set_num_threads(1);
  {
    FleetSimulator resumed(*model, cfg);
    resumed.resume(cfg.checkpoint_path);
    EXPECT_EQ(resumed.next_tick(), 4);
    resumed.run();
    EXPECT_EQ(timeline_bytes(resumed), base.timeline) << "4-thread ckpt, 1-thread resume";
  }
  set_num_threads(0);
}

TEST(FleetResume, MismatchedConfigOrSeedIsRefused) {
  const auto model = fleet_model();
  FleetConfig cfg = resume_fleet();
  cfg.checkpoint_path = (testing::scratch_dir("mismatch") / "sweep.ftck").string();
  {
    FleetSimulator doomed(*model, cfg);
    doomed.step();
    doomed.step();
  }

  FleetConfig other_seed = cfg;
  other_seed.seed += 1;
  FleetSimulator wrong_seed(*model, other_seed);
  try {
    wrong_seed.resume(cfg.checkpoint_path);
    FAIL() << "seed mismatch must not resume";
  } catch (const CheckpointError& err) {
    EXPECT_EQ(err.kind(), CheckpointErrorKind::kStateMismatch);
    EXPECT_EQ(err.chunk(), "FLCF");
  }

  FleetConfig other_policy = cfg;
  other_policy.policy = RepairPolicyKind::kNeverRepair;
  FleetSimulator wrong_policy(*model, other_policy);
  EXPECT_THROW(wrong_policy.resume(cfg.checkpoint_path), CheckpointError);

  // checkpoint_path itself is NOT part of the canonical echo: resuming the
  // same sweep into a different output path is the normal sharded workflow.
  FleetConfig other_path = cfg;
  other_path.checkpoint_path = (testing::scratch_dir("mismatch-out") / "other.ftck").string();
  FleetSimulator repathed(*model, other_path);
  EXPECT_NO_THROW(repathed.resume(cfg.checkpoint_path));
}

TEST(FleetResume, ResumeAfterSteppingIsAContractViolation) {
  const auto model = fleet_model();
  FleetConfig cfg = resume_fleet();
  cfg.checkpoint_path = (testing::scratch_dir("late") / "sweep.ftck").string();
  {
    FleetSimulator doomed(*model, cfg);
    doomed.step();
    doomed.step();
  }
  FleetSimulator late(*model, cfg);
  late.step();
  EXPECT_THROW(late.resume(cfg.checkpoint_path), ContractViolation);
}

TEST(FleetResume, DeviceRecordLayoutSkewIsRefused) {
  const auto model = fleet_model();
  FleetConfig cfg = resume_fleet();
  const std::string dir = testing::scratch_dir("layout").string();
  cfg.checkpoint_path = dir + "/sweep.ftck";
  {
    FleetSimulator doomed(*model, cfg);
    doomed.step();
    doomed.step();
  }
  // Re-seal the file with only FLDV's leading layout word changed: every
  // CRC is valid, so the refusal has to come from the layout check.
  const CheckpointReader original(cfg.checkpoint_path);
  CheckpointWriter skewed;
  for (const CheckpointChunk& chunk : original.chunks()) {
    std::vector<std::uint8_t> payload = chunk.payload;
    if (chunk.tag == "FLDV") {
      ASSERT_GE(payload.size(), std::size_t{4});
      payload[0] ^= 0x02;  // low byte of the little-endian layout word
    }
    skewed.add_chunk(chunk.tag, std::move(payload));
  }
  const std::string path = dir + "/skewed.ftck";
  skewed.write(path);

  FleetSimulator victim(*model, cfg);
  try {
    victim.resume(path);
    FAIL() << "a device record layout skew must not resume";
  } catch (const CheckpointError& err) {
    EXPECT_EQ(err.kind(), CheckpointErrorKind::kVersionSkew);
    EXPECT_EQ(err.chunk(), "FLDV");
    EXPECT_NE(std::string(err.what()).find("layout"), std::string::npos) << err.what();
  }
}

TEST(FleetResume, TruncatedCheckpointIsRefused) {
  const auto model = fleet_model();
  FleetConfig cfg = resume_fleet();
  const std::string dir = testing::scratch_dir("truncated").string();
  cfg.checkpoint_path = dir + "/sweep.ftck";
  {
    FleetSimulator doomed(*model, cfg);
    doomed.step();
    doomed.step();
  }
  // Chop the tail off the file; the CRC32C framing must catch it.
  std::vector<char> bytes;
  {
    std::ifstream in(cfg.checkpoint_path, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), std::size_t{64});
  const std::string cut = dir + "/cut.ftck";
  {
    std::ofstream out(cut, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 48));
  }
  FleetSimulator victim(*model, cfg);
  EXPECT_THROW(victim.resume(cut), CheckpointError);
}

}  // namespace
}  // namespace ftpim::fleet
