// Edge-fleet serving demo: one trained model, N defective replicas that wear
// out while they serve, request-driven batched inference.
//
// Trains a SmallCNN, builds an InferenceServer whose ReplicaPool holds
// FTPIM_REPLICAS clones each carrying its own persistent stuck-at defect map,
// reports the per-replica accuracy spread (the "device lottery" the paper's
// FT training narrows), then fires synthetic traffic at it from
// FTPIM_CLIENTS threads. While serving, replicas age (new stuck-at faults
// accumulate per served batch); every few batches each worker runs a
// known-answer canary batch against golden outputs from the pristine source
// model, and a replica whose rolling success rate drops below the quarantine
// threshold is repaired — re-cloned with a fresh defect map — and returns to
// duty. Requests carry deadlines and a 2-attempt budget, so a batch lost to a
// failing replica fails over to a healthy one instead of surfacing an error.
#include <array>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "src/common/config.hpp"
#include "src/common/parallel.hpp"
#include "src/common/timer.hpp"
#include "src/core/evaluator.hpp"
#include "src/core/trainer.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/small_cnn.hpp"
#include "src/serve/inference_server.hpp"
#include "src/serve/serve_error.hpp"

int main() {
  using namespace ftpim;
  using namespace ftpim::serve;

  const int replicas = env_int("FTPIM_REPLICAS", 4, 1);
  const int clients = env_int("FTPIM_CLIENTS", 4, 1);
  const int requests_per_client = env_int("FTPIM_REQS", 256, 1);
  const double p_sa = env_double("FTPIM_PSA", 0.01);

  SynthVisionConfig data_cfg;
  data_cfg.num_classes = 10;
  data_cfg.image_size = 16;
  data_cfg.samples = env_int("FTPIM_TRAIN", 1024, 1);
  const auto train = make_synthvision(data_cfg, 1);
  data_cfg.samples = env_int("FTPIM_TEST", 512, 1);
  const auto test = make_synthvision(data_cfg, 2);

  SmallCnnConfig model_cfg;
  model_cfg.image_size = 16;
  auto model = make_small_cnn(model_cfg);
  TrainConfig tc;
  tc.epochs = env_int("FTPIM_EPOCHS", 4, 1);
  Trainer(*model, *train, tc).run();
  const double clean_acc = evaluate_accuracy(*model, *test);
  std::printf("factory model accuracy (no defects): %.2f%%\n", clean_acc * 100.0);

  ServerConfig cfg;
  cfg.queue_capacity = 512;
  cfg.batching.max_batch_size = 16;
  cfg.batching.max_linger_ns = 500'000;  // 0.5ms
  cfg.pool.num_replicas = replicas;
  cfg.pool.p_sa = p_sa;  // factory defect rate at ship time
  cfg.pool.seed = 31337;
  // Wear model: every 16 served batches, 1% of the surviving cells fail.
  cfg.aging.p_new_per_interval = 0.01;
  cfg.aging.interval_batches = 16;
  cfg.aging.seed = 99;
  // Health policy: canary every 8 batches, quarantine+repair below 85%.
  cfg.health.canary_every_batches = 8;
  cfg.health.canary_samples = 8;
  cfg.health.window = 32;
  cfg.health.min_samples = 8;
  cfg.health.quarantine_below = 0.85;
  cfg.health.repair_on_quarantine = true;
  // Reliability policy: 50ms deadline, one failover attempt.
  cfg.default_deadline_ns = 50'000'000;
  cfg.max_attempts = 2;
  InferenceServer server(*model, cfg);

  std::printf("fleet: %d replicas at per-cell failure rate %.3f | %d clients x %d reqs | "
              "batch<=%lld linger %.1fms | threads: %d\n\n",
              replicas, p_sa, clients, requests_per_client,
              static_cast<long long>(cfg.batching.max_batch_size),
              static_cast<double>(cfg.batching.max_linger_ns) * 1e-6, num_threads());

  // Per-replica accuracy spread: each defective clone evaluated offline,
  // before traffic starts driving (and aging) them.
  std::printf("per-replica accuracy (ship-time defect maps):\n");
  for (int r = 0; r < server.pool().size(); ++r) {
    const double acc = evaluate_accuracy(server.pool().replica(r), *test);
    std::printf("  replica %d: %.2f%%  (cell fault rate %.4f, %lld weights hit)\n", r,
                acc * 100.0, server.pool().injection_stats(r).cell_fault_rate(),
                static_cast<long long>(server.pool().injection_stats(r).affected_weights));
  }

  constexpr std::size_t kErrorKinds = ServeError::kExhausted + 1;
  struct ClientTally {
    std::int64_t answered = 0;
    std::int64_t correct = 0;
    std::array<std::int64_t, kErrorKinds> errors_by_kind{};
  };
  server.start();
  Timer wall;
  std::vector<std::thread> client_threads;
  std::vector<ClientTally> tallies(static_cast<std::size_t>(clients));
  client_threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      ClientTally& tally = tallies[static_cast<std::size_t>(c)];
      for (int i = 0; i < requests_per_client; ++i) {
        const std::int64_t idx = (static_cast<std::int64_t>(c) * requests_per_client + i) %
                                 test->size();
        const Sample sample = test->get(idx);
        std::future<InferenceResult> fut = server.submit(sample.image);
        try {
          const InferenceResult res = fut.get();
          ++tally.answered;
          if (res.predicted == sample.label) ++tally.correct;
        } catch (const ServeError& e) {
          ++tally.errors_by_kind[static_cast<std::size_t>(e.kind())];
        }
      }
    });
  }
  for (std::thread& t : client_threads) t.join();
  server.drain();
  const double secs = wall.seconds();
  server.stop();

  ClientTally total;
  for (const ClientTally& t : tallies) {
    total.answered += t.answered;
    total.correct += t.correct;
    for (std::size_t k = 0; k < kErrorKinds; ++k) total.errors_by_kind[k] += t.errors_by_kind[k];
  }
  const std::int64_t sent = static_cast<std::int64_t>(clients) * requests_per_client;
  const ServerStats stats = server.stats();

  std::printf("\ntraffic: %lld requests in %.2fs -> %.0f req/s | answered %lld",
              static_cast<long long>(sent), secs, static_cast<double>(sent) / secs,
              static_cast<long long>(total.answered));
  if (total.answered > 0) {
    std::printf(" | served accuracy %.2f%%",
                100.0 * static_cast<double>(total.correct) /
                    static_cast<double>(total.answered));
  }
  std::printf("\n");
  for (std::size_t k = 0; k < kErrorKinds; ++k) {
    if (total.errors_by_kind[k] > 0) {
      std::printf("  %s: %lld\n", to_string(static_cast<ServeError::Kind>(k)),
                  static_cast<long long>(total.errors_by_kind[k]));
    }
  }
  std::printf("latency: mean %.3fms | min %.3fms | max %.3fms\n",
              stats.latency.mean_ns() * 1e-6,
              static_cast<double>(stats.latency.min_ns()) * 1e-6,
              static_cast<double>(stats.latency.max_ns()) * 1e-6);
  std::printf("per-replica served:");
  for (std::size_t r = 0; r < stats.replicas.size(); ++r) {
    std::printf(" r%zu=%lld", r, static_cast<long long>(stats.replicas[r].served));
  }
  std::printf("\n%s\n%s\n", stats.summary_line().c_str(), stats.health_line().c_str());
  return 0;
}
