// Online fault detection in the serve layer: ABFT detections feeding the
// replica's health window, detection-triggered tile scrubs, and the
// escalation path from exhausted scrub retries to forced quarantine and
// repair. Suite names start with Abft*/Scrub* so scripts/ci.sh's TSan leg
// picks them up.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "src/common/check.hpp"
#include "src/models/small_cnn.hpp"
#include "src/nn/module.hpp"
#include "src/reram/defect_map.hpp"
#include "src/serve/health_monitor.hpp"
#include "src/serve/inference_server.hpp"
#include "test_util.hpp"

namespace ftpim::serve {
namespace {

std::unique_ptr<Module> make_model() {
  SmallCnnConfig cfg;
  cfg.image_size = 16;
  cfg.seed = 5;
  // Pin the first crossbar weight to zero: a stuck-on positive cell at
  // (o=0, i=0) is then a guaranteed level-domain change, so the transient
  // upset below is detectable regardless of what the random init drew.
  auto model = make_small_cnn(cfg);
  parameters_of(*model)[0]->value[0] = 0.0f;
  return model;
}

Tensor make_input(std::uint64_t seed) {
  return testing::random_tensor(Shape{3, 16, 16}, seed, 0.5f);
}

/// Deterministic single-worker quantized serving with ABFT armed: one
/// request per batch, greedy batching, manual clock, pristine fleet, ideal
/// ADC (exact integer tolerance — every detection is a true fault).
ServerConfig abft_server_config(ManualServeClock& clock) {
  ServerConfig cfg;
  cfg.queue_capacity = 128;
  cfg.batching.max_batch_size = 1;
  cfg.batching.max_linger_ns = 0;
  cfg.pool.num_replicas = 1;
  cfg.pool.p_sa = 0.0;
  cfg.pool.seed = 21;
  cfg.pool.engine = ReplicaEngine::kQuantized;
  cfg.pool.quantized.abft.enabled = true;
  cfg.pool.quantized.adc.bits = 0;
  cfg.clock = &clock;
  return cfg;
}

// --- Detections in the health window --------------------------------------

HealthConfig tight_health() {
  HealthConfig h;
  h.window = 8;
  h.min_samples = 4;
  h.suspect_below = 0.95;
  h.quarantine_below = 0.60;
  return h;
}

constexpr int kWindowRequests = 12;

/// Serves kWindowRequests single-request batches while aging-grown faults
/// ring the checksums. Canaries, escalation and repair stay out of the way,
/// so the window holds one success per batch plus whatever the server
/// records for the detections.
ServerStats run_detection_window_once() {
  const auto model = make_model();
  ManualServeClock clock(1'000'000);
  ServerConfig cfg = abft_server_config(clock);
  cfg.aging.p_new_per_interval = 0.2;
  cfg.aging.interval_batches = 1;
  cfg.aging.seed = 404;
  cfg.health = tight_health();
  cfg.health.window = 64;
  cfg.health.max_scrub_retries = 1000;
  cfg.health.repair_on_quarantine = false;
  InferenceServer server(*model, cfg);
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < kWindowRequests; ++i) {
    futures.push_back(server.submit(make_input(800 + static_cast<std::uint64_t>(i))));
  }
  server.start();
  server.drain();
  server.stop();
  for (auto& f : futures) (void)f.get();
  return server.stats();
}

TEST(AbftHealthMonitor, DetectionsDepressTheWindowAndAreCounted) {
  const ServerStats stats = run_detection_window_once();
  ASSERT_EQ(stats.batches, kWindowRequests);
  ASSERT_GT(stats.abft_detections, 0);
  EXPECT_GE(stats.abft_flagged_tiles, stats.abft_detections);
  // Each detected batch adds one failure outcome next to its success.
  EXPECT_EQ(stats.replicas[0].window_size, kWindowRequests + stats.abft_detections);
  EXPECT_DOUBLE_EQ(stats.replicas[0].health,
                   static_cast<double>(kWindowRequests) /
                       static_cast<double>(kWindowRequests + stats.abft_detections));
}

TEST(AbftHealthMonitor, ForcedQuarantineIsStickyUntilRepair) {
  const HealthConfig cfg = tight_health();
  ReplicaRecord rec(cfg.window);
  rec.pinned = true;
  EXPECT_EQ(health_state(rec, cfg), ReplicaHealth::kQuarantined);
  // A perfect window cannot lift a pinned quarantine...
  for (int i = 0; i < 8; ++i) rec.window.record(true);
  EXPECT_DOUBLE_EQ(rec.window.success_rate(), 1.0);
  EXPECT_EQ(health_state(rec, cfg), ReplicaHealth::kQuarantined);
  // ...only the repair path can.
  rec.mark_repaired();
  EXPECT_FALSE(rec.pinned);
  EXPECT_EQ(health_state(rec, cfg), ReplicaHealth::kHealthy);
  EXPECT_EQ(rec.repairs, 1);
}

// --- Transient upset: detect -> scrub -> heal, no repair ---------------------

struct TransientRun {
  std::vector<std::int64_t> predicted;
  std::vector<float> logits_before;  ///< probe answered before the upset
  std::vector<float> logits_after;   ///< same input answered after the scrub
  ServerStats stats;
  int generation = 0;
};

TransientRun run_transient_once() {
  const auto model = make_model();
  ManualServeClock clock(1'000'000);
  ServerConfig cfg = abft_server_config(clock);
  cfg.health.canary_every_batches = 1;
  cfg.health.canary_samples = 4;
  cfg.health.window = 8;
  cfg.health.min_samples = 4;

  // Land a transient stuck-on upset on the worker thread just before batch 3
  // runs: the positive cell of layer 0's weight (0, 0) — pinned to zero by
  // make_model(), so the fault flips its level from mid-scale to full-on.
  InferenceServer* srv = nullptr;
  int batch_no = 0;
  cfg.batch_hook = [&srv, &batch_no](int replica_id, std::vector<Request>&) {
    if (++batch_no == 3) {
      qinfer::QuantizedDeployment* dep = srv->pool().deployment(replica_id);
      ASSERT_NE(dep, nullptr);
      qinfer::QuantizedCrossbarEngine& eng = dep->engine(0);
      eng.apply_defect_map(DefectMap::from_faults(
          2 * eng.out_features() * eng.in_features(), {{0, FaultType::kStuckOn}}));
    }
  };
  InferenceServer server(*model, cfg);
  srv = &server;

  // Request 1 and request 6 carry the SAME input: one is answered by the
  // pristine engine, the other after the upset was scrubbed — healing must
  // restore bit-exact outputs without a re-clone.
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t seed = (i == 6) ? 501 : 500 + static_cast<std::uint64_t>(i);
    futures.push_back(server.submit(make_input(seed)));
  }
  server.start();
  server.drain();
  server.stop();

  TransientRun out;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    InferenceResult res = futures[i].get();
    out.predicted.push_back(res.predicted);
    if (i == 1) out.logits_before = res.logits.vec();
    if (i == 6) out.logits_after = res.logits.vec();
  }
  out.stats = server.stats();
  out.generation = server.pool().generation(0);
  return out;
}

TEST(AbftServe, TransientUpsetDetectedScrubbedAndHealedInPlace) {
  const TransientRun run = run_transient_once();
  // Detection latency is one batch: the upset batch itself is flagged, the
  // scrub answers it, and nothing else ever rings.
  EXPECT_EQ(run.stats.served, 8);
  EXPECT_EQ(run.stats.failed, 0);
  EXPECT_EQ(run.stats.abft_detections, 1);
  EXPECT_EQ(run.stats.abft_flagged_tiles, 1) << "one tile of layer 0 must be named";
  EXPECT_EQ(run.stats.abft_scrubs, 1);
  EXPECT_EQ(run.stats.abft_scrubbed_tiles, 1);
  EXPECT_EQ(run.stats.abft_escalations, 0);
  // The scrub healed the transient in place: no quarantine, no repair, the
  // device is still generation 0, and the post-batch canaries (which run
  // AFTER the scrub) never miss.
  EXPECT_EQ(run.stats.quarantines, 0);
  EXPECT_EQ(run.stats.repairs, 0);
  EXPECT_EQ(run.generation, 0);
  EXPECT_EQ(run.stats.canary_failures, 0);
  // Healed means bit-exact: the same input produces the same logits before
  // the upset and after the scrub.
  ASSERT_EQ(run.logits_before.size(), run.logits_after.size());
  EXPECT_EQ(std::memcmp(run.logits_before.data(), run.logits_after.data(),
                        run.logits_before.size() * sizeof(float)),
            0);
}

TEST(AbftServe, TransientLifecycleIsBitReproducible) {
  const TransientRun a = run_transient_once();
  const TransientRun b = run_transient_once();
  EXPECT_EQ(a.predicted, b.predicted);
  EXPECT_EQ(a.logits_after, b.logits_after);
  EXPECT_EQ(a.stats.abft_detections, b.stats.abft_detections);
  EXPECT_EQ(a.stats.abft_flagged_tiles, b.stats.abft_flagged_tiles);
  EXPECT_EQ(a.stats.summary_line(), b.stats.summary_line());
  EXPECT_EQ(a.stats.health_line(), b.stats.health_line());
}

TEST(AbftServe, TransientRunMatchesRecordedGoldenLines) {
  // Recorded from the build before the replica record had one owner.
  const ServerStats s = run_transient_once().stats;
  EXPECT_EQ(s.summary_line(),
            "served 8/8 (rejected 0=full:0+stop:0, failed 0, retried 0, expired 0) | "
            "batches 8 (fill 1.00) | queue 0 | p50 0.000ms p95 0.000ms p99 0.000ms");
  EXPECT_EQ(s.health_line(),
            "canary 8 batches (0 misses) | abft 1 hits (1 tiles) scrubs 1 (1 tiles) "
            "refresh 0 esc 0 | quarantines 0 repairs 0 | aged_cells 0 | "
            "[0]=healthy:1.00 win=8/8 can=0/1");
  EXPECT_EQ(s.poisoned + s.worker_exceptions + s.in_flight, 0);
  EXPECT_EQ(s.replicas, (std::vector<ReplicaStats>{{.served = 8, .window_size = 8}}));
}

// --- Persistent damage: scrub retries exhausted -> quarantine -> repair ------

ServerStats run_escalation_once(int num_requests, int max_scrub_retries) {
  const auto model = make_model();
  ManualServeClock clock(1'000'000);
  ServerConfig cfg = abft_server_config(clock);
  // Aggressive wear: every served batch is an aging interval in which 20% of
  // the surviving cells fail. Aging faults live in the replica's persistent
  // map, so every scrub re-applies them — detections persist until the
  // retry budget is exhausted and the replica is force-quarantined.
  cfg.aging.p_new_per_interval = 0.2;
  cfg.aging.interval_batches = 1;
  cfg.aging.seed = 404;
  cfg.health.canary_every_batches = 0;  // isolate the ABFT path
  cfg.health.quarantine_below = 0.0;     // no score is below 0: escalation is the only route
  cfg.health.max_scrub_retries = max_scrub_retries;
  cfg.health.repair_on_quarantine = true;
  InferenceServer server(*model, cfg);

  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < num_requests; ++i) {
    futures.push_back(server.submit(make_input(700 + static_cast<std::uint64_t>(i))));
  }
  server.start();
  server.drain();
  server.stop();
  for (auto& f : futures) (void)f.get();  // accepted => answered, no throws
  return server.stats();
}

TEST(ScrubServe, PersistentDamageEscalatesThroughRetriesToRepair) {
  const ServerStats stats = run_escalation_once(20, /*max_scrub_retries=*/2);
  EXPECT_EQ(stats.served, 20);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_GT(stats.aged_cells, 0);
  // The full escalation ladder ran: aging-grown faults were detected, the
  // scrub budget was spent re-programming tiles (the persistent map keeps
  // resurfacing them), and exhaustion forced the quarantine + repair path.
  EXPECT_GE(stats.abft_detections, 3);
  EXPECT_GE(stats.abft_scrubs, 2);
  EXPECT_GT(stats.abft_scrubbed_tiles, 0);
  EXPECT_GE(stats.abft_escalations, 1);
  // With canaries off and no score below quarantine_below, every quarantine
  // (and so every repair) was ABFT-escalated.
  EXPECT_EQ(stats.quarantines, stats.abft_escalations);
  EXPECT_EQ(stats.repairs, stats.abft_escalations);
}

TEST(ScrubServe, EscalationLifecycleIsBitReproducible) {
  const ServerStats a = run_escalation_once(20, /*max_scrub_retries=*/2);
  const ServerStats b = run_escalation_once(20, /*max_scrub_retries=*/2);
  EXPECT_EQ(a.abft_detections, b.abft_detections);
  EXPECT_EQ(a.abft_flagged_tiles, b.abft_flagged_tiles);
  EXPECT_EQ(a.abft_scrubs, b.abft_scrubs);
  EXPECT_EQ(a.abft_scrubbed_tiles, b.abft_scrubbed_tiles);
  EXPECT_EQ(a.abft_escalations, b.abft_escalations);
  EXPECT_EQ(a.aged_cells, b.aged_cells);
  EXPECT_EQ(a.repairs, b.repairs);
  EXPECT_EQ(a.summary_line(), b.summary_line());
  EXPECT_EQ(a.health_line(), b.health_line());
}

TEST(ScrubServe, EscalationRunMatchesRecordedGoldenLines) {
  // Recorded from the build before the replica record had one owner.
  const ServerStats s = run_escalation_once(20, /*max_scrub_retries=*/2);
  EXPECT_EQ(s.summary_line(),
            "served 20/20 (rejected 0=full:0+stop:0, failed 0, retried 0, expired 0) | "
            "batches 20 (fill 1.00) | queue 0 | p50 0.000ms p95 0.000ms p99 0.000ms");
  EXPECT_EQ(s.health_line(),
            "canary 0 batches (0 misses) | abft 15 hits (60 tiles) scrubs 10 (40 tiles) "
            "refresh 0 esc 5 | quarantines 5 repairs 5 | aged_cells 23353 | "
            "[0]=healthy:1.00 win=0/64");
  EXPECT_EQ(s.poisoned + s.worker_exceptions + s.in_flight, 0);
  EXPECT_EQ(s.replicas, (std::vector<ReplicaStats>{{.served = 20, .repairs = 5}}));
}

TEST(ScrubServe, ZeroRetriesEscalatesEveryDetectionWithoutScrubbing) {
  const ServerStats stats = run_escalation_once(20, /*max_scrub_retries=*/0);
  EXPECT_EQ(stats.served, 20);
  EXPECT_GT(stats.abft_detections, 0);
  EXPECT_EQ(stats.abft_scrubs, 0);
  EXPECT_EQ(stats.abft_escalations, stats.abft_detections);
}

// --- ScrubPolicy::kPeriodic: scheduled whole-replica refresh -----------------

TEST(ScrubServe, PeriodicRefreshHealsASilentUpsetWithoutAnyDetector) {
  const auto model = make_model();
  ManualServeClock clock(1'000'000);
  ServerConfig cfg = abft_server_config(clock);
  // Detector and canaries OFF: the upset below is completely silent. Only
  // the blind cadence — a whole-replica refresh every 2 served batches —
  // stands between the fault and the remaining traffic.
  cfg.pool.quantized.abft.enabled = false;
  cfg.health.canary_every_batches = 0;
  cfg.health.scrub_policy = ScrubPolicy::kPeriodic;
  cfg.health.scrub_every_batches = 2;

  InferenceServer* srv = nullptr;
  int batch_no = 0;
  cfg.batch_hook = [&srv, &batch_no](int replica_id, std::vector<Request>&) {
    if (++batch_no == 3) {
      qinfer::QuantizedDeployment* dep = srv->pool().deployment(replica_id);
      ASSERT_NE(dep, nullptr);
      qinfer::QuantizedCrossbarEngine& eng = dep->engine(0);
      eng.apply_defect_map(DefectMap::from_faults(
          2 * eng.out_features() * eng.in_features(), {{0, FaultType::kStuckOn}}));
    }
  };
  InferenceServer server(*model, cfg);
  srv = &server;

  // Request 1 is answered pristine; request 6 carries the SAME input and is
  // answered after the scheduled refresh (end of batch 4) re-programmed the
  // die — the silent upset must be gone, bit-exactly.
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t seed = (i == 6) ? 501 : 500 + static_cast<std::uint64_t>(i);
    futures.push_back(server.submit(make_input(seed)));
  }
  server.start();
  server.drain();
  server.stop();

  std::vector<float> logits_before;
  std::vector<float> logits_after;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    InferenceResult res = futures[i].get();
    if (i == 1) logits_before = res.logits.vec();
    if (i == 6) logits_after = res.logits.vec();
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.served, 8);
  EXPECT_EQ(stats.periodic_refreshes, 4) << "cadence 2 over 8 single-request batches";
  // Nothing detected, nothing escalated, nothing swapped: the heal came from
  // the schedule alone, without consuming a device generation.
  EXPECT_EQ(stats.abft_detections, 0);
  EXPECT_EQ(stats.abft_scrubs, 0);
  EXPECT_EQ(stats.quarantines, 0);
  EXPECT_EQ(stats.repairs, 0);
  EXPECT_EQ(server.pool().generation(0), 0);
  ASSERT_EQ(logits_before.size(), logits_after.size());
  EXPECT_EQ(std::memcmp(logits_before.data(), logits_after.data(),
                        logits_before.size() * sizeof(float)),
            0);
}

TEST(ScrubServe, PeriodicPolicyRequiresACadence) {
  HealthConfig h;
  h.scrub_policy = ScrubPolicy::kPeriodic;
  h.scrub_every_batches = 0;
  EXPECT_THROW(h.validate(), ContractViolation);
  h.scrub_every_batches = 4;
  EXPECT_NO_THROW(h.validate());
  EXPECT_STREQ(to_string(ScrubPolicy::kPeriodic), "periodic");
  EXPECT_STREQ(to_string(ScrubPolicy::kDetectionDriven), "detection-driven");
}

}  // namespace
}  // namespace ftpim::serve
