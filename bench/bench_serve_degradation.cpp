// Self-healing under wear: throughput and tail latency as replicas age,
// get quarantined by canary checks, and are repaired from the pristine
// source model.
//
// Three fleet policies are swept over the same request stream:
//   no-aging    — devices never wear out (upper bound),
//   age-only    — defects accumulate per served batch, nobody intervenes,
//   self-heal   — canary batches score each replica; quarantined replicas
//                 are re-cloned with a fresh defect map before serving resumes.
// The interesting columns are canary accuracy (how wrong the un-healed fleet
// gets) and p99 (what repair pauses cost). Repairs show up as occasional
// slow batches; un-repaired aging shows up as silently wrong answers.
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "src/common/config.hpp"
#include "src/common/parallel.hpp"
#include "src/common/timer.hpp"
#include "src/core/evaluator.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/small_cnn.hpp"
#include "src/serve/inference_server.hpp"

namespace {

using namespace ftpim;
using namespace ftpim::serve;

struct PolicyResult {
  std::string name;
  double reqs_per_sec = 0.0;
  double p50_ms = 0.0, p99_ms = 0.0;
  double canary_acc = 1.0;  ///< canary pass rate over the run (1.0 if none ran)
  std::int64_t aged_cells = 0;
  std::int64_t quarantines = 0;
  std::int64_t repairs = 0;
};

enum class Policy { kNoAging, kAgeOnly, kSelfHeal };

PolicyResult run_policy(const Module& model, const Dataset& data, Policy policy,
                        int total_requests) {
  ServerConfig cfg;
  cfg.queue_capacity = 1024;
  cfg.batching.max_batch_size = 8;
  cfg.batching.max_linger_ns = 500'000;  // 0.5ms
  cfg.pool.num_replicas = 2;
  cfg.pool.p_sa = 0.002;  // low ship-time rate: degradation should come from wear
  cfg.pool.seed = 7;
  if (policy != Policy::kNoAging) {
    // Aggressive wear so the effect is visible within one bench run: every
    // 8 served batches, 5% of the surviving cells fail.
    cfg.aging.p_new_per_interval = 0.05;
    cfg.aging.interval_batches = 8;
    cfg.aging.seed = 99;
  }
  // Canaries run under every policy so the accuracy column is comparable;
  // only the self-heal policy acts on the verdict.
  cfg.health.canary_every_batches = 8;
  cfg.health.canary_samples = 8;
  cfg.health.window = 32;
  cfg.health.min_samples = 8;
  cfg.health.quarantine_below = 0.80;
  cfg.health.repair_on_quarantine = policy == Policy::kSelfHeal;
  InferenceServer server(model, cfg);
  server.start();

  std::vector<std::future<InferenceResult>> futures;
  futures.reserve(static_cast<std::size_t>(total_requests));
  Timer wall;
  for (int i = 0; i < total_requests; ++i) {
    futures.push_back(server.submit(data.get(i % data.size()).image));
  }
  for (auto& f : futures) (void)f.get();
  server.drain();
  const double secs = wall.seconds();
  server.stop();

  const ServerStats stats = server.stats();
  PolicyResult out;
  out.name = policy == Policy::kNoAging ? "no-aging"
             : policy == Policy::kAgeOnly ? "age-only"
                                          : "self-heal";
  out.reqs_per_sec = static_cast<double>(stats.served) / secs;
  out.p50_ms = static_cast<double>(stats.latency.p50_ns()) * 1e-6;
  out.p99_ms = static_cast<double>(stats.latency.p99_ns()) * 1e-6;
  const std::int64_t canary_total = stats.canary_batches * cfg.health.canary_samples;
  if (canary_total > 0) {
    out.canary_acc = 1.0 - static_cast<double>(stats.canary_failures) /
                               static_cast<double>(canary_total);
  }
  out.aged_cells = stats.aged_cells;
  out.quarantines = stats.quarantines;
  out.repairs = stats.repairs;
  return out;
}

}  // namespace

int main() {
  const RunScale scale = run_scale();
  const int total_requests = env_int("FTPIM_REQS", scale.name == "quick" ? 512 : 2048, 1);

  std::printf("=== serve degradation: aging vs self-healing fleet ===\n");
  std::printf("model: SmallCNN | img: %dx%d | requests: %d | replicas: 2 | scale: %s | "
              "threads: %d\n\n",
              scale.image_size, scale.image_size, total_requests, scale.name.c_str(),
              ftpim::num_threads());

  SynthVisionConfig data_cfg;
  data_cfg.num_classes = 10;
  data_cfg.image_size = scale.image_size;
  data_cfg.samples = 256;
  const auto data = make_synthvision(data_cfg, 3);

  SmallCnnConfig model_cfg;
  model_cfg.image_size = scale.image_size;
  const auto model = make_small_cnn(model_cfg);

  std::printf("%10s %10s %9s %9s %11s %11s %11s %8s\n", "policy", "req/s", "p50(ms)",
              "p99(ms)", "canary-acc", "aged-cells", "quarantines", "repairs");
  for (const Policy policy : {Policy::kNoAging, Policy::kAgeOnly, Policy::kSelfHeal}) {
    const PolicyResult r = run_policy(*model, *data, policy, total_requests);
    std::printf("%10s %10.0f %9.3f %9.3f %11.3f %11lld %11lld %8lld\n", r.name.c_str(),
                r.reqs_per_sec, r.p50_ms, r.p99_ms, r.canary_acc,
                static_cast<long long>(r.aged_cells), static_cast<long long>(r.quarantines),
                static_cast<long long>(r.repairs));
  }
  return 0;
}
