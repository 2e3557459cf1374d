// Self-healing serving: OutcomeWindow, the replica record and its health
// rule, canary scoring, deadline/retry/failover semantics, poisoned-batchmate
// isolation, the deterministic degrade->quarantine->repair loop, and stats
// read while maintenance runs.
// Suite names start with Serve* so scripts/ci.sh's TSan leg picks them up.
#include "src/serve/health_monitor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/checkpoint.hpp"
#include "src/core/evaluator.hpp"
#include "src/models/small_cnn.hpp"
#include "src/nn/module.hpp"
#include "src/serve/inference_server.hpp"
#include "src/serve/serve_error.hpp"
#include "test_util.hpp"

namespace ftpim::serve {
namespace {

std::unique_ptr<Module> make_model() {
  SmallCnnConfig cfg;
  cfg.image_size = 16;
  cfg.seed = 5;
  return make_small_cnn(cfg);
}

Tensor make_input(std::uint64_t seed) {
  return testing::random_tensor(Shape{3, 16, 16}, seed, 0.5f);
}

/// Resolves a future expected to fail with a ServeError; reports its kind.
ServeError::Kind kind_of(std::future<InferenceResult>& fut) {
  try {
    (void)fut.get();
  } catch (const ServeError& e) {
    return e.kind();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "future failed with a non-ServeError: " << e.what();
    return ServeError::kStopped;
  }
  ADD_FAILURE() << "future unexpectedly succeeded";
  return ServeError::kStopped;
}

// --- OutcomeWindow -----------------------------------------------------------

TEST(ServeHealthWindow, EmptyWindowReadsHealthy) {
  OutcomeWindow w(4);
  EXPECT_EQ(w.size(), 0);
  EXPECT_DOUBLE_EQ(w.success_rate(), 1.0);
  EXPECT_THROW(OutcomeWindow bad(0), ContractViolation);
}

TEST(ServeHealthWindow, SlidesAndEvictsOldest) {
  OutcomeWindow w(3);
  w.record(false);
  w.record(false);
  w.record(false);
  EXPECT_DOUBLE_EQ(w.success_rate(), 0.0);
  // Three successes push the three failures out one by one.
  w.record(true);
  EXPECT_EQ(w.successes(), 1);
  EXPECT_EQ(w.failures(), 2);
  w.record(true);
  w.record(true);
  EXPECT_DOUBLE_EQ(w.success_rate(), 1.0);
  EXPECT_EQ(w.size(), 3);
  EXPECT_EQ(w.capacity(), 3);
}

TEST(ServeHealthWindow, ResetForgetsEverything) {
  OutcomeWindow w(8);
  for (int i = 0; i < 8; ++i) w.record(i % 2 == 0);
  EXPECT_EQ(w.size(), 8);
  w.reset();
  EXPECT_EQ(w.size(), 0);
  EXPECT_EQ(w.successes(), 0);
  EXPECT_DOUBLE_EQ(w.success_rate(), 1.0);
}

TEST(ServeHealthWindow, CodecRoundTripsEmptyAndWrappedWindows) {
  // The fleet checkpoint (FLDV chunk) persists per-device windows; empty,
  // exactly-full, and wrapped-past-capacity windows must all restore to a
  // state that keeps recording/evicting identically to the original.
  const auto round_trip = [](const OutcomeWindow& w) {
    ByteWriter out;
    w.encode(out);
    ByteReader in(out.bytes(), "window");
    OutcomeWindow back = OutcomeWindow::decode(in);
    in.expect_done();
    return back;
  };

  OutcomeWindow empty_back = round_trip(OutcomeWindow(4));
  EXPECT_EQ(empty_back.capacity(), 4);
  EXPECT_EQ(empty_back.size(), 0);
  EXPECT_DOUBLE_EQ(empty_back.success_rate(), 1.0);

  OutcomeWindow exactly_full(3);
  for (int i = 0; i < 3; ++i) exactly_full.record(i != 1);
  OutcomeWindow full_back = round_trip(exactly_full);
  EXPECT_EQ(full_back.size(), 3);
  EXPECT_EQ(full_back.successes(), 2);

  OutcomeWindow wrapped(3);
  for (int i = 0; i < 5; ++i) wrapped.record(i >= 3);  // eviction cursor mid-ring
  OutcomeWindow wrapped_back = round_trip(wrapped);
  EXPECT_EQ(wrapped_back.size(), 3);
  EXPECT_EQ(wrapped_back.successes(), wrapped.successes());
  // The cursor survives the round trip: the same future outcomes must evict
  // the same past outcomes from both windows, keeping the rates locked.
  for (bool outcome : {false, true, false, false}) {
    wrapped.record(outcome);
    wrapped_back.record(outcome);
    EXPECT_EQ(wrapped_back.successes(), wrapped.successes());
    EXPECT_DOUBLE_EQ(wrapped_back.success_rate(), wrapped.success_rate());
  }
}

TEST(ServeHealthWindow, CodecAfterResetMatchesAFreshWindow) {
  // A post-repair reset() must leave no trace of history in the encoding —
  // a resumed device starts its window exactly like a never-used one.
  OutcomeWindow used(4);
  for (int i = 0; i < 6; ++i) used.record(true);
  used.reset();
  ByteWriter reset_bytes;
  used.encode(reset_bytes);
  ByteWriter fresh_bytes;
  OutcomeWindow(4).encode(fresh_bytes);
  EXPECT_EQ(reset_bytes.bytes(), fresh_bytes.bytes());
}

TEST(ServeHealthWindow, CodecRejectsInconsistentFraming) {
  const auto expect_bad = [](std::int64_t capacity, std::int64_t head, std::int64_t size,
                             std::vector<std::uint8_t> ring) {
    ByteWriter out;
    out.i64(capacity);
    out.i64(head);
    out.i64(size);
    out.raw(ring.data(), ring.size());
    ByteReader in(out.bytes(), "window");
    EXPECT_THROW((void)OutcomeWindow::decode(in), CheckpointError)
        << "capacity=" << capacity << " head=" << head << " size=" << size;
  };
  expect_bad(0, 0, 0, {});                 // empty ring
  expect_bad(3, 3, 2, {1, 0, 1});          // cursor past the ring
  expect_bad(3, 0, 4, {1, 0, 1});          // more outcomes than slots
  expect_bad(3, 0, 3, {1, 2, 0});          // ring byte not 0/1
  expect_bad(3, 0, 1, {1, 1, 0});          // stale slots claim successes > size
}

// --- Replica record and the health rule ------------------------------------

HealthConfig tight_health() {
  HealthConfig h;
  h.window = 8;
  h.min_samples = 4;
  h.suspect_below = 0.95;
  h.quarantine_below = 0.60;
  return h;
}

void record_n(ReplicaRecord& rec, bool success, int count) {
  for (int i = 0; i < count; ++i) rec.window.record(success);
}

TEST(ServeHealthMonitor, MinSamplesGateKeepsFreshReplicasHealthy) {
  const HealthConfig cfg = tight_health();
  ReplicaRecord rec(cfg.window);
  // Three straight failures — still below the evidence bar.
  record_n(rec, false, 3);
  EXPECT_EQ(health_state(rec, cfg), ReplicaHealth::kHealthy);
  EXPECT_DOUBLE_EQ(rec.window.success_rate(), 0.0);
  // Fourth failure crosses min_samples: now the score counts.
  rec.window.record(false);
  EXPECT_EQ(health_state(rec, cfg), ReplicaHealth::kQuarantined);
  // A record that never saw an outcome is healthy.
  EXPECT_EQ(health_state(ReplicaRecord(cfg.window), cfg), ReplicaHealth::kHealthy);
}

TEST(ServeHealthMonitor, ThresholdsMapScoreToStates) {
  const HealthConfig cfg = tight_health();
  ReplicaRecord rec(cfg.window);
  // 7/8 = 0.875: below suspect_below, above quarantine_below.
  record_n(rec, true, 7);
  record_n(rec, false, 1);
  EXPECT_EQ(health_state(rec, cfg), ReplicaHealth::kSuspect);
  // Slide to 4/8 = 0.5 < 0.6: quarantined.
  record_n(rec, false, 3);
  EXPECT_EQ(health_state(rec, cfg), ReplicaHealth::kQuarantined);
  EXPECT_STREQ(to_string(health_state(rec, cfg)), "quarantined");
}

TEST(ServeHealthMonitor, RepairResetsWindowAndCountsRepairs) {
  const HealthConfig cfg = tight_health();
  ReplicaRecord rec(cfg.window);
  record_n(rec, false, 8);
  rec.batches_since_repair = 9;
  rec.batches_since_canary = 2;
  rec.batches_since_scrub = 3;
  rec.consecutive_detections = 4;
  rec.last_state = ReplicaHealth::kQuarantined;
  ASSERT_EQ(health_state(rec, cfg), ReplicaHealth::kQuarantined);
  rec.mark_repaired();
  EXPECT_EQ(health_state(rec, cfg), ReplicaHealth::kHealthy);
  EXPECT_EQ(rec.window.size(), 0);
  EXPECT_DOUBLE_EQ(rec.window.success_rate(), 1.0);
  EXPECT_EQ(rec.repairs, 1);
  // The new die starts its aging clock, countdowns and streak from zero.
  EXPECT_EQ(rec.batches_since_repair, 0);
  EXPECT_EQ(rec.batches_since_canary, 0);
  EXPECT_EQ(rec.batches_since_scrub, 0);
  EXPECT_EQ(rec.consecutive_detections, 0);
  EXPECT_EQ(rec.last_state, ReplicaHealth::kHealthy);
}

TEST(ServeHealthMonitor, ValidatesConfigAndBounds) {
  HealthConfig bad = tight_health();
  bad.quarantine_below = 0.99;  // above suspect_below
  EXPECT_THROW(bad.validate(), ContractViolation);
  HealthConfig bad2 = tight_health();
  bad2.min_samples = 100;  // exceeds window
  EXPECT_THROW(bad2.validate(), ContractViolation);
  EXPECT_NO_THROW(tight_health().validate());
  // The server validates its health config before any worker starts.
  const auto model = make_model();
  ServerConfig cfg;
  cfg.health = bad2;
  EXPECT_THROW(InferenceServer(*model, cfg), ContractViolation);
}

// --- Canary set --------------------------------------------------------------

TEST(ServeHealthCanary, GoldenOutputsAreDeterministicAndSourceUntouched) {
  const auto model = make_model();
  std::vector<std::vector<float>> before;
  for (const Param* p : parameters_of(*model)) before.push_back(p->value.vec());

  const CanarySet a = make_canary_set(*model, Shape{3, 16, 16}, 4, 99);
  const CanarySet b = make_canary_set(*model, Shape{3, 16, 16}, 4, 99);
  EXPECT_EQ(a.count(), 4);
  EXPECT_EQ(a.inputs.shape(), (Shape{4, 3, 16, 16}));
  EXPECT_EQ(a.inputs.vec(), b.inputs.vec());
  EXPECT_EQ(a.golden.vec(), b.golden.vec());
  EXPECT_EQ(a.golden_pred, b.golden_pred);

  const CanarySet c = make_canary_set(*model, Shape{3, 16, 16}, 4, 100);
  EXPECT_NE(a.inputs.vec(), c.inputs.vec()) << "different seeds must differ";

  std::size_t k = 0;
  for (const Param* p : parameters_of(*model)) EXPECT_EQ(p->value.vec(), before[k++]);
}

TEST(ServeHealthCanary, ScoreCountsArgmaxMatches) {
  const auto model = make_model();
  const CanarySet canary = make_canary_set(*model, Shape{3, 16, 16}, 4, 7);
  // The clean model scores perfectly against its own golden outputs.
  EXPECT_EQ(score_canary(canary.golden, canary), 4);

  // Nudging a logit that keeps the argmax still passes; flipping one row's
  // prediction fails exactly that row.
  const std::int64_t classes = canary.golden.dim(1);
  Tensor nudged = canary.golden;
  nudged[canary.golden_pred[0]] += 0.5f;
  EXPECT_EQ(score_canary(nudged, canary), 4);
  const std::int64_t other = (canary.golden_pred[1] + 1) % classes;
  nudged[classes + other] = canary.golden.abs_max() + 1.0f;
  EXPECT_EQ(score_canary(nudged, canary), 3);
}

// --- Deadlines, retry, failover ---------------------------------------------

TEST(ServeHealthServer, RetryFailsOverToHealthyReplica) {
  // Replica 0's device "breaks" on every batch (the hook throws); replica 1
  // is healthy. With a 2-attempt budget no request may ever surface an
  // error — every failure re-queues onto the healthy replica.
  const auto model = make_model();
  ServerConfig cfg;
  cfg.queue_capacity = 64;
  cfg.batching.max_batch_size = 4;
  cfg.batching.max_linger_ns = 0;
  cfg.pool.num_replicas = 2;
  cfg.pool.p_sa = 0.01;
  cfg.max_attempts = 2;
  cfg.health.min_samples = 64;  // keep quarantine out of this test's way
  cfg.batch_hook = [](int replica_id, std::vector<Request>&) {
    if (replica_id == 0) throw std::runtime_error("chaos: replica 0 device fault");
  };
  InferenceServer server(*model, cfg);

  constexpr int kRequests = 24;
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < kRequests; ++i) futures.push_back(server.submit(make_input(i)));
  server.start();
  server.drain();
  server.stop();

  for (auto& f : futures) {
    const InferenceResult res = f.get();  // throws if any request failed
    EXPECT_EQ(res.replica_id, 1);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.served, kRequests);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.replicas[0].served, 0);
  EXPECT_EQ(stats.replicas[1].served, kRequests);
  EXPECT_GT(stats.retried, 0);
  // Every throwing forward pass was recorded, none swallowed silently.
  EXPECT_GT(stats.worker_exceptions, 0);
  // Replica 0's health window saw its batch failures.
  EXPECT_LT(stats.replicas[0].health, 1.0);
  EXPECT_DOUBLE_EQ(stats.replicas[1].health, 1.0);
}

TEST(ServeHealthServer, ExhaustedWhenNoAlternativeReplica) {
  // Single replica, always-failing device: the attempt budget is useless
  // because there is nobody to fail over to — typed kExhausted, no retries.
  const auto model = make_model();
  ServerConfig cfg;
  cfg.batching.max_linger_ns = 0;
  cfg.pool.num_replicas = 1;
  cfg.max_attempts = 3;
  cfg.batch_hook = [](int, std::vector<Request>&) {
    throw std::runtime_error("chaos: device fault");
  };
  InferenceServer server(*model, cfg);
  auto fut = server.submit(make_input(1));
  server.start();
  server.drain();
  server.stop();

  EXPECT_EQ(kind_of(fut), ServeError::kExhausted);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.retried, 0);
  EXPECT_EQ(stats.served, 0);
  EXPECT_EQ(stats.worker_exceptions, 1);
}

TEST(ServeHealthServer, AttemptBudgetSpentAcrossReplicas) {
  // Both replicas fail: attempt 1 re-queues with the first replica excluded,
  // attempt 2 exhausts the budget on the second.
  const auto model = make_model();
  ServerConfig cfg;
  cfg.batching.max_linger_ns = 0;
  cfg.pool.num_replicas = 2;
  cfg.max_attempts = 2;
  cfg.health.min_samples = 64;
  cfg.batch_hook = [](int, std::vector<Request>&) {
    throw std::runtime_error("chaos: fleet-wide fault");
  };
  InferenceServer server(*model, cfg);
  auto fut = server.submit(make_input(2));
  server.start();
  server.drain();
  server.stop();

  EXPECT_EQ(kind_of(fut), ServeError::kExhausted);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.retried, 1);
}

TEST(ServeHealthServer, DeadlineExpiredWhileQueuedFailsTyped) {
  // The deadline passes while the request sits in the queue (manual clock
  // advanced before the worker starts): typed kDeadlineExceeded through the
  // future — catchable as ServeError, not just a generic runtime_error.
  const auto model = make_model();
  ManualServeClock clock(1'000'000);
  ServerConfig cfg;
  cfg.batching.max_linger_ns = 0;
  cfg.pool.num_replicas = 1;
  cfg.clock = &clock;
  InferenceServer server(*model, cfg);

  SubmitOptions opts;
  opts.deadline_ns = 1000;  // relative: absolute deadline = now + 1us
  auto doomed = server.submit(make_input(1), opts);
  auto fine = server.submit(make_input(2));  // no deadline
  clock.advance_ns(10'000);                  // sail past the first deadline
  server.start();
  server.drain();
  server.stop();

  EXPECT_EQ(kind_of(doomed), ServeError::kDeadlineExceeded);
  EXPECT_NO_THROW((void)fine.get());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.expired, 1);
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.served, 1);
}

TEST(ServeHealthServer, PoisonedRequestDoesNotTakeDownBatchmates) {
  // A request whose promise is already satisfied (poisoned via the batch
  // hook, standing in for a cancelled/duplicated client) must not prevent
  // its batchmates from being answered.
  const auto model = make_model();
  ServerConfig cfg;
  cfg.batching.max_batch_size = 3;
  cfg.batching.max_linger_ns = 0;
  cfg.pool.num_replicas = 1;
  cfg.batch_hook = [](int, std::vector<Request>& batch) {
    if (batch.size() == 3) {
      InferenceResult hijacked;
      hijacked.predicted = -1;
      (void)answer(batch[1], std::move(hijacked));
    }
  };
  InferenceServer server(*model, cfg);

  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(server.submit(make_input(i)));
  server.start();
  server.drain();
  server.stop();

  // Batchmates answered normally; the poisoned slot kept the hook's value.
  EXPECT_GE(futures[0].get().predicted, 0);
  EXPECT_EQ(futures[1].get().predicted, -1);
  EXPECT_GE(futures[2].get().predicted, 0);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.served, 2);
  EXPECT_EQ(stats.poisoned, 1);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.in_flight, 0);
}

// --- Degrade -> quarantine -> repair, deterministically ----------------------

struct DegradationRun {
  std::vector<std::int64_t> predicted;
  ServerStats stats;
};

DegradationRun run_degradation_once(int num_requests) {
  const auto model = make_model();
  ManualServeClock clock(1'000'000);
  ServerConfig cfg;
  cfg.queue_capacity = 128;
  cfg.batching.max_batch_size = 1;  // every request is its own batch
  cfg.batching.max_linger_ns = 0;   // deterministic mode: greedy batching
  cfg.pool.num_replicas = 1;        // deterministic mode: single worker
  cfg.pool.p_sa = 0.0;              // ships pristine; degradation comes from aging
  cfg.pool.seed = 21;
  cfg.clock = &clock;
  // Aggressive wear: every served batch is an aging interval in which 20% of
  // the surviving cells fail — the replica degrades within a handful of
  // batches.
  cfg.aging.p_new_per_interval = 0.2;
  cfg.aging.interval_batches = 1;
  cfg.aging.seed = 404;
  // Canary after every batch; quarantine once the window dips below 0.6.
  cfg.health.canary_every_batches = 1;
  cfg.health.canary_samples = 4;
  cfg.health.window = 8;
  cfg.health.min_samples = 4;
  cfg.health.suspect_below = 0.95;
  cfg.health.quarantine_below = 0.60;
  cfg.health.repair_on_quarantine = true;
  InferenceServer server(*model, cfg);

  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < num_requests; ++i) {
    futures.push_back(server.submit(make_input(500 + static_cast<std::uint64_t>(i))));
  }
  server.start();
  server.drain();
  server.stop();

  DegradationRun out;
  for (auto& f : futures) {
    out.predicted.push_back(f.get().predicted);  // accepted => answered, no throws
  }
  out.stats = server.stats();
  return out;
}

TEST(ServeHealthServer, DeterministicDegradationQuarantineRepairLoop) {
  constexpr int kRequests = 40;
  const DegradationRun a = run_degradation_once(kRequests);
  const DegradationRun b = run_degradation_once(kRequests);

  // The lifecycle actually happened: the replica aged, canaries caught the
  // degradation, it was quarantined and repaired — at least once — and every
  // accepted request was still answered with a result.
  EXPECT_EQ(a.stats.served, kRequests);
  EXPECT_EQ(a.stats.failed, 0);
  EXPECT_GT(a.stats.aged_cells, 0);
  EXPECT_EQ(a.stats.canary_batches, kRequests);
  EXPECT_GT(a.stats.canary_failures, 0);
  EXPECT_GE(a.stats.quarantines, 1);
  EXPECT_GE(a.stats.repairs, 1);
  ASSERT_EQ(a.stats.replicas.size(), std::size_t{1});
  EXPECT_EQ(static_cast<std::int64_t>(a.stats.replicas[0].repairs), a.stats.repairs);
  // The observability gauges reflect the config: window capacity, per-replica
  // window fill, and the canary cadence all surface in the snapshot.
  EXPECT_EQ(a.stats.health_window_capacity, 8);
  // A repair on the final batch legitimately resets the window to empty, so
  // only the capacity bound is invariant here.
  EXPECT_LE(a.stats.replicas[0].window_size, 8);
  EXPECT_EQ(a.stats.canary_every_batches, 1);

  // Bit-identical across runs: predictions, every counter, the latency
  // histogram, and the rendered summary/health lines.
  EXPECT_EQ(a.predicted, b.predicted);
  EXPECT_EQ(a.stats.aged_cells, b.stats.aged_cells);
  EXPECT_EQ(a.stats.canary_failures, b.stats.canary_failures);
  EXPECT_EQ(a.stats.quarantines, b.stats.quarantines);
  EXPECT_EQ(a.stats.repairs, b.stats.repairs);
  EXPECT_EQ(a.stats.batches, b.stats.batches);
  EXPECT_EQ(a.stats.replicas, b.stats.replicas);
  EXPECT_EQ(a.stats.latency.bin_counts(), b.stats.latency.bin_counts());
  EXPECT_EQ(a.stats.summary_line(), b.stats.summary_line());
  EXPECT_EQ(a.stats.health_line(), b.stats.health_line());
}

TEST(ServeHealthServer, DegradationRunMatchesRecordedGoldenLines) {
  // Recorded from the build before the replica record had one owner: a
  // refactor that changes both runs of the test above the same way still
  // has to reproduce these exact counters and lines.
  const DegradationRun run = run_degradation_once(40);
  const ServerStats& s = run.stats;
  EXPECT_EQ(s.summary_line(),
            "served 40/40 (rejected 0=full:0+stop:0, failed 0, retried 0, expired 0) | "
            "batches 40 (fill 1.00) | queue 0 | p50 0.000ms p95 0.000ms p99 0.000ms");
  EXPECT_EQ(s.health_line(),
            "canary 40 batches (111 misses) | abft 0 hits (0 tiles) scrubs 0 (0 tiles) "
            "refresh 0 esc 0 | quarantines 27 repairs 27 | aged_cells 58532 | "
            "[0]=healthy:1.00 win=0/8 can=0/1");
  EXPECT_EQ(s.poisoned + s.worker_exceptions + s.in_flight, 0);
  EXPECT_EQ(s.replicas, (std::vector<ReplicaStats>{{.served = 40, .repairs = 27}}));
}

TEST(ServeHealthServer, StatsReadsDuringMaintenanceNeverGoBackwards) {
  // Three quantized workers with aging, canaries, periodic refresh and ABFT
  // on, while a reader thread polls stats() and health_line(): no counter in
  // the snapshot ever shrinks, and the final snapshot accounts for every
  // request. TSan runs this through the Serve* subset.
  const auto model = make_model();
  ServerConfig cfg;
  cfg.batching.max_batch_size = 4;
  cfg.batching.max_linger_ns = 0;
  cfg.pool.num_replicas = 3;
  cfg.pool.p_sa = 0.01;
  cfg.pool.engine = ReplicaEngine::kQuantized;
  cfg.pool.quantized.abft.enabled = true;
  cfg.aging.p_new_per_interval = 0.01;
  cfg.aging.interval_batches = 2;
  cfg.health = tight_health();
  cfg.health.canary_every_batches = 2;
  cfg.health.max_scrub_retries = 1;
  cfg.health.scrub_policy = ScrubPolicy::kPeriodic;
  cfg.health.scrub_every_batches = 3;
  InferenceServer server(*model, cfg);
  server.start();

  const auto counters = [](const ServerStats& s) {
    std::vector<std::int64_t> c = {s.submitted, s.served, s.failed, s.retried, s.batches,
                                   s.canary_batches, s.canary_failures, s.quarantines, s.repairs,
                                   s.aged_cells, s.abft_detections, s.abft_flagged_tiles,
                                   s.abft_scrubs, s.abft_scrubbed_tiles, s.abft_escalations,
                                   s.periodic_refreshes, s.worker_exceptions};
    for (const ReplicaStats& r : s.replicas) c.insert(c.end(), {r.served, r.repairs});
    return c;
  };
  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::vector<std::int64_t> last = counters(server.stats());
    do {
      const ServerStats s = server.stats();
      EXPECT_EQ(s.health_line().rfind("canary ", 0), std::size_t{0});
      const std::vector<std::int64_t> now = counters(s);
      for (std::size_t i = 0; i < now.size(); ++i) EXPECT_GE(now[i], last[i]) << "counter " << i;
      last = now;
    } while (!done.load(std::memory_order_acquire));
  });

  constexpr int kRequests = 96;
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(server.submit(make_input(900 + static_cast<std::uint64_t>(i))));
  }
  server.drain();
  done.store(true, std::memory_order_release);
  reader.join();
  server.stop();
  for (auto& f : futures) (void)f.get();

  const ServerStats s = server.stats();
  EXPECT_EQ(s.submitted, kRequests);
  EXPECT_EQ(s.submitted, s.served + s.failed);
  EXPECT_EQ(s.in_flight, 0);
  EXPECT_GT(s.canary_batches, 0);
  EXPECT_GT(s.periodic_refreshes, 0);
}

// --- ServeError taxonomy -----------------------------------------------------

TEST(ServeHealthError, KindsRoundTripThroughToString) {
  EXPECT_STREQ(to_string(ServeError::kQueueFull), "queue_full");
  EXPECT_STREQ(to_string(ServeError::kStopped), "stopped");
  EXPECT_STREQ(to_string(ServeError::kDeadlineExceeded), "deadline_exceeded");
  EXPECT_STREQ(to_string(ServeError::kExhausted), "exhausted");
  const ServeError err(ServeError::kExhausted, "budget spent");
  EXPECT_EQ(err.kind(), ServeError::kExhausted);
  EXPECT_STREQ(err.what(), "budget spent");
  // is-a runtime_error: legacy catch sites keep working.
  EXPECT_THROW(throw ServeError(ServeError::kStopped, "x"), std::runtime_error);
}

TEST(ServeHealthStats, SummaryAndHealthLinesRenderBreakdown) {
  ServerStats s;
  s.submitted = 10;
  s.rejected_queue_full = 1;
  s.rejected_stopped = 2;
  s.served = 4;
  s.replicas = {ReplicaStats{.health = 0.5, .state = ReplicaHealth::kSuspect, .repairs = 2}};
  s.quarantines = 1;
  s.repairs = 2;
  EXPECT_EQ(s.rejected(), 3);
  const std::string line = s.summary_line();
  EXPECT_NE(line.find("rejected 3=full:1+stop:2,"), std::string::npos) << line;
  const std::string health = s.health_line();
  EXPECT_NE(health.find("suspect:0.50"), std::string::npos) << health;
  EXPECT_NE(health.find("quarantines 1 repairs 2"), std::string::npos) << health;
}

TEST(ServeHealthStats, HealthLineShowsAbftWindowAndCanaryGauges) {
  ServerStats s;
  s.replicas = {ReplicaStats{.health = 0.88, .window_size = 5, .canary_progress = 3}};
  s.health_window_capacity = 8;
  s.canary_every_batches = 4;
  s.abft_detections = 2;
  s.abft_flagged_tiles = 7;
  s.abft_scrubs = 2;
  s.abft_scrubbed_tiles = 7;
  s.abft_escalations = 1;
  const std::string line = s.health_line();
  // Window fill and canary countdown distinguish a stuck monitor from a
  // healthy idle one; the abft segment carries the detection/scrub story.
  EXPECT_NE(line.find("win=5/8"), std::string::npos) << line;
  EXPECT_NE(line.find("can=3/4"), std::string::npos) << line;
  EXPECT_NE(line.find("abft 2 hits (7 tiles) scrubs 2 (7 tiles) refresh 0 esc 1"),
            std::string::npos)
      << line;

  // With canaries off the countdown gauge disappears but the window stays.
  s.canary_every_batches = 0;
  const std::string quiet = s.health_line();
  EXPECT_EQ(quiet.find("can="), std::string::npos) << quiet;
  EXPECT_NE(quiet.find("win=5/8"), std::string::npos) << quiet;
}

TEST(ServeHealthStats, HealthLineExactFormatIsPinned) {
  // Operators grep these lines out of logs; the layout is load-bearing.
  // All-zero stats render every segment, in order, with "no replicas".
  ServerStats zero;
  EXPECT_EQ(zero.health_line(),
            "canary 0 batches (0 misses) | abft 0 hits (0 tiles) scrubs 0 (0 tiles) "
            "refresh 0 esc 0 | quarantines 0 repairs 0 | aged_cells 0 | no replicas");

  ServerStats s;
  s.canary_batches = 3;
  s.canary_failures = 1;
  s.abft_detections = 4;
  s.abft_flagged_tiles = 9;
  s.abft_scrubs = 2;
  s.abft_scrubbed_tiles = 5;
  s.periodic_refreshes = 12;  // the kPeriodic scrub-policy counter
  s.abft_escalations = 1;
  s.quarantines = 6;
  s.repairs = 7;
  s.aged_cells = 42;
  s.replicas = {ReplicaStats{.health = 1.0},
                ReplicaStats{.health = 0.25, .state = ReplicaHealth::kQuarantined}};
  const std::string line = s.health_line();
  EXPECT_EQ(line,
            "canary 3 batches (1 misses) | abft 4 hits (9 tiles) scrubs 2 (5 tiles) "
            "refresh 12 esc 1 | quarantines 6 repairs 7 | aged_cells 42 | "
            "[0]=healthy:1.00 [1]=quarantined:0.25");
}

}  // namespace
}  // namespace ftpim::serve
