// InferenceServer: lifecycle, dynamic batching, replica fleet, determinism,
// and the multi-client/multi-worker drain guarantee. Suite names start with
// Serve* so scripts/ci.sh's TSan leg picks them up.
#include "src/serve/inference_server.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "src/common/check.hpp"
#include "src/models/small_cnn.hpp"
#include "src/nn/module.hpp"
#include "src/serve/batching_policy.hpp"
#include "src/serve/replica_pool.hpp"
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

// --- BatchingPolicy ----------------------------------------------------------

TEST(ServeBatchingPolicy, FlushDecisionsWithManualClock) {
  BatchingPolicy p;
  p.max_batch_size = 4;
  p.max_linger_ns = 1000;
  p.validate();

  EXPECT_FALSE(p.full(3));
  EXPECT_TRUE(p.full(4));

  const std::int64_t open = 5000;
  EXPECT_EQ(p.remaining_linger_ns(5000, open), 1000);
  EXPECT_EQ(p.remaining_linger_ns(5600, open), 400);
  EXPECT_EQ(p.remaining_linger_ns(6000, open), 0);
  EXPECT_EQ(p.remaining_linger_ns(9999, open), 0);  // never negative

  EXPECT_FALSE(p.should_flush(1, 5500, open));  // partial batch, linger left
  EXPECT_TRUE(p.should_flush(4, 5000, open));   // full
  EXPECT_TRUE(p.should_flush(1, 6000, open));   // linger expired

  BatchingPolicy greedy;
  greedy.max_linger_ns = 0;
  EXPECT_TRUE(greedy.should_flush(1, 0, 0));  // never waits

  BatchingPolicy bad;
  bad.max_batch_size = 0;
  EXPECT_THROW(bad.validate(), ContractViolation);
}

// --- ReplicaPool -------------------------------------------------------------

std::vector<std::vector<float>> snapshot_params(Module& m) {
  std::vector<std::vector<float>> out;
  for (const Param* p : parameters_of(m)) out.push_back(p->value.vec());
  return out;
}

TEST(ServeReplicaPool, FleetIsReproducibleAndSourceUntouched) {
  const auto model = make_model();
  const auto source_before = snapshot_params(*model);

  ReplicaPoolConfig cfg;
  cfg.num_replicas = 3;
  cfg.p_sa = 0.05;
  cfg.seed = 77;
  ReplicaPool pool_a(*model, cfg);
  ReplicaPool pool_b(*model, cfg);

  EXPECT_EQ(snapshot_params(*model), source_before) << "pool construction mutated the source";
  ASSERT_EQ(pool_a.size(), 3);

  bool some_replicas_differ = false;
  for (int r = 0; r < pool_a.size(); ++r) {
    // Same seed -> bit-identical fleet across pool rebuilds.
    EXPECT_EQ(snapshot_params(pool_a.replica(r)), snapshot_params(pool_b.replica(r)))
        << "replica " << r << " not reproducible";
    EXPECT_GT(pool_a.injection_stats(r).faulted_cells, 0);
    EXPECT_EQ(pool_a.replica_seed(r), derive_seed(cfg.seed, static_cast<std::uint64_t>(r)));
    if (snapshot_params(pool_a.replica(r)) != source_before) some_replicas_differ = true;
  }
  EXPECT_TRUE(some_replicas_differ) << "p_sa=0.05 should perturb weights";
  // Distinct replicas carry distinct defect maps.
  EXPECT_NE(snapshot_params(pool_a.replica(0)), snapshot_params(pool_a.replica(1)));
}

TEST(ServeReplicaPool, ZeroRateFleetIsPristine) {
  const auto model = make_model();
  ReplicaPoolConfig cfg;
  cfg.num_replicas = 2;
  cfg.p_sa = 0.0;
  ReplicaPool pool(*model, cfg);
  EXPECT_EQ(snapshot_params(pool.replica(0)), snapshot_params(*model));
  EXPECT_EQ(pool.injection_stats(0).faulted_cells, 0);
}

// --- InferenceServer: determinism -------------------------------------------

struct RunOutputs {
  std::vector<std::vector<float>> logits;
  std::vector<std::int64_t> predicted;
  std::vector<std::int64_t> batch_sizes;
  ServerStats stats;
};

RunOutputs run_deterministic_once(int num_requests) {
  const auto model = make_model();
  ManualServeClock clock(1'000'000);

  ServerConfig cfg;
  cfg.queue_capacity = 64;
  cfg.batching.max_batch_size = 4;
  cfg.batching.max_linger_ns = 0;  // deterministic mode: greedy batching
  cfg.pool.num_replicas = 1;       // deterministic mode: single worker
  cfg.pool.p_sa = 0.02;
  cfg.pool.seed = 123;
  cfg.clock = &clock;
  InferenceServer server(*model, cfg);

  // Same request order every run: enqueue everything before the (single)
  // worker exists, so batch composition is a pure function of queue order.
  std::vector<std::future<InferenceResult>> futures;
  futures.reserve(static_cast<std::size_t>(num_requests));
  for (int i = 0; i < num_requests; ++i) {
    futures.push_back(server.submit(make_input(1000 + static_cast<std::uint64_t>(i))));
  }
  server.start();
  server.drain();
  server.stop();

  RunOutputs out;
  for (auto& f : futures) {
    InferenceResult res = f.get();
    out.logits.push_back(res.logits.vec());
    out.predicted.push_back(res.predicted);
    out.batch_sizes.push_back(res.batch_size);
    EXPECT_EQ(res.replica_id, 0);
    EXPECT_EQ(res.latency_ns, 0) << "manual clock never advanced";
  }
  out.stats = server.stats();
  return out;
}

TEST(ServeServer, DeterministicSingleWorkerBitIdenticalRuns) {
  constexpr int kRequests = 10;
  const RunOutputs a = run_deterministic_once(kRequests);
  const RunOutputs b = run_deterministic_once(kRequests);

  // Outputs: bit-identical logits and predictions, same batch shapes.
  ASSERT_EQ(a.logits.size(), static_cast<std::size_t>(kRequests));
  EXPECT_EQ(a.logits, b.logits);
  EXPECT_EQ(a.predicted, b.predicted);
  EXPECT_EQ(a.batch_sizes, b.batch_sizes);
  // 10 pre-queued requests at max batch 4 -> batches of 4, 4, 2.
  EXPECT_EQ(a.batch_sizes.front(), 4);
  EXPECT_EQ(a.batch_sizes.back(), 2);

  // Stats: counters and the full latency histogram agree exactly.
  EXPECT_EQ(a.stats.submitted, kRequests);
  EXPECT_EQ(a.stats.served, kRequests);
  EXPECT_EQ(a.stats.rejected(), 0);
  EXPECT_EQ(a.stats.failed, 0);
  EXPECT_EQ(a.stats.batches, 3);
  EXPECT_EQ(a.stats.in_flight, 0);
  // Robustness counters all stay zero on a healthy, deadline-free run — and
  // stay bit-identical across runs like everything else.
  EXPECT_EQ(a.stats.retried, 0);
  EXPECT_EQ(a.stats.expired, 0);
  EXPECT_EQ(a.stats.poisoned, 0);
  EXPECT_EQ(a.stats.canary_batches, 0);
  EXPECT_EQ(a.stats.quarantines, 0);
  EXPECT_EQ(a.stats.repairs, 0);
  EXPECT_EQ(a.stats.aged_cells, 0);
  EXPECT_EQ(a.stats.retried, b.stats.retried);
  EXPECT_EQ(a.stats.replicas, b.stats.replicas);
  EXPECT_EQ(a.stats.summary_line(), b.stats.summary_line());
  EXPECT_EQ(a.stats.health_line(), b.stats.health_line());
  EXPECT_EQ(a.stats.batches, b.stats.batches);
  EXPECT_EQ(a.stats.latency.count(), b.stats.latency.count());
  EXPECT_EQ(a.stats.latency.bin_counts(), b.stats.latency.bin_counts());
  EXPECT_EQ(a.stats.latency.p99_ns(), b.stats.latency.p99_ns());
  EXPECT_DOUBLE_EQ(a.stats.mean_batch_fill(), b.stats.mean_batch_fill());
}

TEST(ServeServer, ServedLogitsMatchDirectReplicaForward) {
  // The served answer must equal running the same faulted replica directly.
  const auto model = make_model();
  ServerConfig cfg;
  cfg.batching.max_linger_ns = 0;
  cfg.pool.num_replicas = 1;
  cfg.pool.p_sa = 0.02;
  cfg.pool.seed = 123;
  InferenceServer server(*model, cfg);

  const Tensor input = make_input(42);
  std::future<InferenceResult> fut = server.submit(input);
  server.start();
  server.drain();
  server.stop();
  const InferenceResult res = fut.get();

  ReplicaPool reference(*model, cfg.pool);
  Tensor batched(Shape{1, 3, 16, 16});
  std::memcpy(batched.data(), input.data(),
              static_cast<std::size_t>(input.numel()) * sizeof(float));
  const Tensor expected = reference.replica(0).forward(batched, /*training=*/false);
  ASSERT_EQ(res.logits.numel(), expected.numel());
  EXPECT_EQ(res.logits.vec(), expected.vec());
}

// --- InferenceServer: lifecycle & policies ----------------------------------

TEST(ServeServer, StressMultiClientMultiWorkerDrainLosesNothing) {
  // >=4 client threads against >=4 workers, tiny queue (real backpressure),
  // graceful drain: every accepted request is answered. TSan covers this via
  // the ci.sh thread leg.
  constexpr int kClients = 4;
  constexpr int kPerClient = 64;
  const auto model = make_model();

  ServerConfig cfg;
  cfg.queue_capacity = 8;
  cfg.overflow = OverflowPolicy::kBlock;
  cfg.batching.max_batch_size = 8;
  cfg.batching.max_linger_ns = 100'000;  // 0.1ms
  cfg.pool.num_replicas = 4;
  cfg.pool.p_sa = 0.01;
  InferenceServer server(*model, cfg);
  server.start();

  std::vector<std::thread> clients;
  std::vector<int> answered(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<InferenceResult>> futures;
      for (int i = 0; i < kPerClient; ++i) {
        futures.push_back(
            server.submit(make_input(static_cast<std::uint64_t>(c) * 1000 + i)));
      }
      for (auto& f : futures) {
        const InferenceResult res = f.get();  // throws if any request was lost
        EXPECT_GE(res.replica_id, 0);
        EXPECT_LT(res.replica_id, 4);
        ++answered[static_cast<std::size_t>(c)];
      }
    });
  }
  for (auto& t : clients) t.join();
  server.drain();
  server.stop();

  constexpr std::int64_t kTotal = kClients * kPerClient;
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(answered[static_cast<std::size_t>(c)], kPerClient);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kTotal);
  EXPECT_EQ(stats.served, kTotal);
  EXPECT_EQ(stats.rejected(), 0);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.in_flight, 0);
  EXPECT_EQ(stats.queue_depth, std::size_t{0});
  EXPECT_EQ(stats.latency.count(), kTotal);
  std::int64_t by_replica = 0;
  for (const ReplicaStats& r : stats.replicas) by_replica += r.served;
  EXPECT_EQ(by_replica, kTotal);
  EXPECT_GE(stats.batches, kTotal / cfg.batching.max_batch_size);
}

TEST(ServeServer, RejectPolicyFailsFastWhenFull) {
  const auto model = make_model();
  ServerConfig cfg;
  cfg.queue_capacity = 2;
  cfg.overflow = OverflowPolicy::kReject;
  cfg.batching.max_linger_ns = 0;
  InferenceServer server(*model, cfg);

  // No workers yet, so the queue fills and stays full.
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 5; ++i) futures.push_back(server.submit(make_input(i)));

  server.start();
  server.drain();
  server.stop();

  int ok = 0, rejected = 0;
  for (auto& f : futures) {
    try {
      (void)f.get();
      ++ok;
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(rejected, 3);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 2);
  EXPECT_EQ(stats.rejected(), 3);
  EXPECT_EQ(stats.rejected_queue_full, 3);  // every rejection was a full queue
  EXPECT_EQ(stats.rejected_stopped, 0);
  EXPECT_EQ(stats.served, 2);
  EXPECT_EQ(stats.in_flight, 0);
}

TEST(ServeServer, GracefulStopFlushesWithoutDrain) {
  const auto model = make_model();
  ServerConfig cfg;
  cfg.batching.max_batch_size = 4;
  cfg.batching.max_linger_ns = 0;
  InferenceServer server(*model, cfg);

  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 20; ++i) futures.push_back(server.submit(make_input(i)));
  server.start();
  server.stop();  // no drain(): stop itself must flush all accepted requests

  for (auto& f : futures) EXPECT_NO_THROW((void)f.get());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.served, 20);
  EXPECT_EQ(stats.in_flight, 0);
}

TEST(ServeServer, StopWithoutStartAnswersQueuedRequests) {
  const auto model = make_model();
  ServerConfig cfg;
  InferenceServer server(*model, cfg);
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(server.submit(make_input(i)));
  server.stop();
  for (auto& f : futures) EXPECT_THROW((void)f.get(), std::runtime_error);
  // Submitting after stop also fails through the future, not a broken promise.
  std::future<InferenceResult> late = server.submit(make_input(99));
  EXPECT_THROW((void)late.get(), std::runtime_error);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected(), 4);
  EXPECT_EQ(stats.rejected_stopped, 4);  // all four died to shutdown, not overflow
  EXPECT_EQ(stats.rejected_queue_full, 0);
  EXPECT_EQ(stats.in_flight, 0);
}

TEST(ServeServer, SubmitValidatesShape) {
  const auto model = make_model();
  ServerConfig cfg;
  InferenceServer server(*model, cfg);
  (void)server.submit(make_input(1));
  EXPECT_THROW((void)server.submit(Tensor(Shape{3, 8, 8})), ContractViolation);
  EXPECT_THROW((void)server.submit(Tensor(Shape{3, 16, 16, 1})), ContractViolation);
  server.stop();
}

TEST(ServeServer, DrainRequiresRunningAndStartOnce) {
  const auto model = make_model();
  ServerConfig cfg;
  InferenceServer server(*model, cfg);
  EXPECT_THROW(server.drain(), ContractViolation);
  server.start();
  EXPECT_THROW(server.start(), ContractViolation);
  server.drain();  // empty server drains immediately
  server.stop();
  server.stop();  // idempotent
}

}  // namespace
}  // namespace ftpim::serve
