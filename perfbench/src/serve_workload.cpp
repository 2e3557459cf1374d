// Serve phase: a seeded Poisson open loop at a fixed offered rate, then a
// closed loop that keeps a fixed window of requests in flight. One generator
// thread drives both.
//
// Latency is measured on the client side. The server reads the benchmark's
// ServeClock once on the submitting thread (the request's enqueue time) and
// once when it answers a batch; InferenceResult::latency_ns is the difference.
// So enqueue + latency_ns is the moment the answer was produced, and the
// latency of an open-loop request is that moment minus its scheduled due
// time — a stall of the generator is charged to every request it delays.
// ServerStats' quarter-octave histogram is never used for percentiles.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "src/common/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace serve = ftpim::serve;

namespace {

/// Enqueue time of the request the calling thread submitted last: the
/// server's only clock read on the submitting thread.
thread_local std::int64_t t_last_read_ns = 0;

class BenchClock final : public serve::ServeClock {
 public:
  std::int64_t now_ns() override {
    t_last_read_ns = perfbench::now_ns();
    return t_last_read_ns;
  }
};

BenchClock g_clock;

/// An open-loop round has fallen behind its schedule — its latencies no
/// longer describe the offered rate — when the generator sends most requests
/// late by more than kMaxLateMedianUs, or stalls for longer than
/// kMaxLateUs. Shorter stalls are charged to the requests they delay.
constexpr double kMaxLateMedianUs = 1000.0;
constexpr double kMaxLateUs = 100000.0;

ftpim::Tensor input_copy(const ftpim::InMemoryDataset& inputs, std::uint32_t index) {
  return inputs.get(static_cast<std::int64_t>(index)).image;
}

/// Output check of one answered request: finite logits whose argmax is the
/// reported prediction.
bool result_ok(const serve::InferenceResult& r) {
  const std::int64_t n = r.logits.numel();
  if (n <= 0) return false;
  const float* p = r.logits.data();
  std::int64_t best = 0;
  for (std::int64_t j = 0; j < n; ++j) {
    if (!std::isfinite(p[j])) return false;
    if (p[j] > p[best]) best = j;
  }
  return best == r.predicted;
}

struct HookRecord {
  std::uint64_t id;
  std::int64_t hook_ns;
};

/// Collects (request id, hook time) pairs from ServerConfig::batch_hook.
class HookLog {
 public:
  void record(const std::vector<serve::Request>& batch) {
    const std::int64_t t = perfbench::now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    for (const serve::Request& r : batch) records_.push_back({r.id, t});
  }
  std::vector<HookRecord> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(records_);
  }

 private:
  std::mutex mu_;
  std::vector<HookRecord> records_;
};

HookLog g_hooks;

}  // namespace

serve::ServerConfig server_config(const WorkloadSpec& spec, std::uint64_t seed) {
  serve::ServerConfig cfg;
  cfg.queue_capacity = 1 << 16;
  cfg.overflow = serve::OverflowPolicy::kBlock;
  cfg.batching.max_batch_size = 16;
  cfg.batching.max_linger_ns = 500'000;
  cfg.pool.num_replicas = 2;
  cfg.pool.p_sa = 0.01;
  cfg.pool.seed = ftpim::derive_seed(seed, 0x5e1);
  cfg.clock = &g_clock;
  if (spec.quantized) {
    cfg.pool.engine = serve::ReplicaEngine::kQuantized;
    cfg.pool.quantized = engine_config(/*abft=*/true);
    // Maintenance writes beside the forward reads: low-rate aging, periodic
    // whole-replica refresh, canaries, ABFT scrub -> quarantine -> repair.
    // Each runs every 64 batches of a replica, so every closed loop (over 80
    // batches per replica) carries each kind.
    cfg.aging.p_new_per_interval = 2e-5;
    cfg.aging.interval_batches = 64;
    cfg.aging.seed = ftpim::derive_seed(seed, 0xa9e);
    cfg.health.canary_every_batches = 64;
    cfg.health.scrub_policy = serve::ScrubPolicy::kPeriodic;
    cfg.health.scrub_every_batches = 64;
  }
  return cfg;
}

void start_server(serve::InferenceServer& server, const ftpim::InMemoryDataset& inputs,
                  int warmup, Outcome& out) {
  server.start();
  std::vector<std::future<serve::InferenceResult>> futures;
  futures.reserve(static_cast<std::size_t>(warmup));
  for (int i = 0; i < warmup; ++i) {
    futures.push_back(
        server.submit(input_copy(inputs, static_cast<std::uint32_t>(i % inputs.size()))));
  }
  for (auto& f : futures) {
    try {
      out.check(result_ok(f.get()), "serve: warm-up answer has non-finite logits or bad argmax");
    } catch (const std::exception& e) {
      out.check(false, std::string("serve: warm-up request failed: ") + e.what());
    }
  }
}

ProbeLogits probe_replicas(serve::InferenceServer& server, const ftpim::InMemoryDataset& inputs) {
  serve::ReplicaPool& pool = server.pool();
  ProbeLogits logits(static_cast<std::size_t>(pool.size()));
  for (int r = 0; r < pool.size(); ++r) {
    for (int p = 0; p < kProbes; ++p) {
      const ftpim::Tensor x = input_copy(inputs, static_cast<std::uint32_t>(p));
      ftpim::Shape batch_shape{1};
      batch_shape.insert(batch_shape.end(), x.shape().begin(), x.shape().end());
      const ftpim::Tensor y = pool.replica(r).forward(x.reshaped(batch_shape), false);
      logits[static_cast<std::size_t>(r)].push_back(y.reshaped(ftpim::Shape{y.numel()}));
    }
    // The probes are clean reads; drop any checksum report so the server
    // starts exactly as it would have without them.
    if (pool.abft_armed()) (void)pool.take_abft_reports(r);
  }
  return logits;
}

void check_served_probes(serve::InferenceServer& server, const ftpim::InMemoryDataset& inputs,
                         const ProbeLogits& expected, Outcome& out) {
  bool same = true;
  for (int p = 0; p < kProbes; ++p) {
    try {
      const serve::InferenceResult r =
          server.submit(input_copy(inputs, static_cast<std::uint32_t>(p))).get();
      const auto replica = static_cast<std::size_t>(r.replica_id);
      const ftpim::Tensor& want = expected.at(replica)[static_cast<std::size_t>(p)];
      same = same && r.batch_size == 1 && r.logits.numel() == want.numel() &&
             std::memcmp(r.logits.data(), want.data(),
                         static_cast<std::size_t>(want.numel()) * sizeof(float)) == 0;
    } catch (const std::exception& e) {
      out.check(false, std::string("serve: probe request failed: ") + e.what());
    }
  }
  out.check(same, "serve: a served answer differs from the direct forward of its replica");
}

ServeRound run_serve_phase(serve::InferenceServer& server, const ftpim::InMemoryDataset& inputs,
                           const WorkloadSpec& spec, std::uint64_t round_seed, double open_s,
                           double closed_s, std::int64_t first_request_id, Tracer* tracer,
                           Outcome& out) {
  ServeRound round;
  const auto num_inputs = static_cast<std::uint32_t>(inputs.size());
  std::int64_t next_id = first_request_id;

  struct Sent {
    std::int64_t due_ns;      ///< scheduled send time (closed loop: enqueue)
    std::int64_t enqueue_ns;  ///< server clock read inside submit()
    std::int64_t id;
    std::int64_t done_ns = 0;
  };
  std::vector<Sent> log;
  bool answers_ok = true;
  auto settle = [&](std::future<serve::InferenceResult>& f, Sent& s) {
    try {
      const serve::InferenceResult r = f.get();
      answers_ok = answers_ok && result_ok(r);
      s.done_ns = s.enqueue_ns + r.latency_ns;
      ++round.served;
    } catch (...) {
      ++round.failed;  // a ServeError: the request failed or was refused
    }
  };

  // --- open loop ---
  const std::vector<Arrival> schedule =
      poisson_schedule(round_seed, spec.open_rate_rps, open_s, num_inputs);
  std::vector<std::future<serve::InferenceResult>> futures;
  futures.reserve(schedule.size());
  log.reserve(schedule.size() + 4096);
  const std::int64_t t0 = now_ns() + 2'000'000;
  for (const Arrival& a : schedule) {
    const std::int64_t due = t0 + a.due_offset_ns;
    if (now_ns() < due) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
    }
    futures.push_back(server.submit(input_copy(inputs, a.input)));
    log.push_back({due, t_last_read_ns, next_id++});
  }
  round.sent += static_cast<std::int64_t>(schedule.size());
  for (std::size_t i = 0; i < futures.size(); ++i) settle(futures[i], log[i]);
  round.latency_ms.reserve(futures.size());
  round.late_us.reserve(futures.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Sent& s = log[i];
    round.late_us.push_back(static_cast<double>(s.enqueue_ns - s.due_ns) * 1e-3);
    if (s.done_ns > 0) round.latency_ms.push_back(static_cast<double>(s.done_ns - s.due_ns) * 1e-6);
  }
  const std::size_t open_count = log.size();

  // --- closed loop ---
  ftpim::Rng pick(ftpim::derive_seed(round_seed, 0xc105ed));
  std::deque<std::pair<std::future<serve::InferenceResult>, std::size_t>> inflight;
  auto send_one = [&] {
    const auto idx = static_cast<std::uint32_t>(pick.uniform_int(num_inputs));
    inflight.emplace_back(server.submit(input_copy(inputs, idx)), log.size());
    log.push_back({t_last_read_ns, t_last_read_ns, next_id++});
    ++round.sent;
  };
  const std::int64_t closed_start = now_ns();
  const std::int64_t closed_end = closed_start + static_cast<std::int64_t>(closed_s * 1e9);
  for (int i = 0; i < spec.window; ++i) send_one();
  // Sustained throughput over the whole closed loop, so the maintenance
  // writes that fall inside it (canaries, aging, refresh, scrub) are paid in
  // proportion.
  std::int64_t completed = 0;
  std::int64_t last_done = closed_start;
  while (true) {
    auto [f, slot] = std::move(inflight.front());
    inflight.pop_front();
    settle(f, log[slot]);
    last_done = now_ns();
    ++completed;
    if (last_done >= closed_end) break;
    send_one();
  }
  round.sat_rps =
      static_cast<double>(completed) / (static_cast<double>(last_done - closed_start) * 1e-9);
  while (!inflight.empty()) {
    settle(inflight.front().first, log[inflight.front().second]);
    inflight.pop_front();
  }

  server.drain();
  round.stats = server.stats();
  server.stop();

  // --- output checks ---
  out.check(answers_ok, "serve: an answer has non-finite logits or predicted != argmax(logits)");
  out.check(round.sent == round.served + round.failed,
            "serve: sent != served + failed (a future did not settle)");
  out.check(round.stats.in_flight == 0 && round.stats.poisoned == 0,
            "serve: requests left in flight or answered twice");
  out.check(round.stats.submitted + round.stats.rejected() == next_id,
            "serve: server-side submitted + rejected != client-side sent");
  out.check(round.stats.submitted == round.stats.served + round.stats.failed,
            "serve: server-side submitted != served + failed");
  const double late_median = median(round.late_us);
  const double late_max =
      round.late_us.empty() ? 0.0 : *std::max_element(round.late_us.begin(), round.late_us.end());
  out.check(late_median <= kMaxLateMedianUs && late_max <= kMaxLateUs,
            "serve: open-loop generator fell behind its schedule (lateness median " +
                json_number(late_median) + " us, max " + json_number(late_max) +
                " us); the run is invalid");

  // --- traced rounds: per-request queue wait and per-batch service time ---
  if (tracer != nullptr) {
    const std::vector<HookRecord> hooks = g_hooks.take();
    std::vector<std::int64_t> hook_of(static_cast<std::size_t>(next_id - first_request_id), 0);
    for (const HookRecord& h : hooks) {
      const auto id = static_cast<std::int64_t>(h.id);
      if (id >= first_request_id && id < next_id) {
        hook_of[static_cast<std::size_t>(id - first_request_id)] = h.hook_ns;
      }
    }
    // Queue wait and batch service come from the open loop (they explain
    // p50_ms/p99_ms); batch size from the closed loop (it explains sat_rps).
    std::vector<std::pair<std::int64_t, std::int64_t>> open_batches, closed_batches;  // (hook, done)
    std::int64_t closed_members = 0;
    for (std::size_t i = 0; i < log.size(); ++i) {
      const Sent& s = log[i];
      const std::int64_t hook = hook_of[static_cast<std::size_t>(s.id - first_request_id)];
      if (hook == 0 || s.done_ns == 0) continue;
      const bool open = i < open_count;
      const std::int64_t root =
          tracer->add("serve.request", open ? s.due_ns : s.enqueue_ns, s.done_ns, -1, s.id);
      tracer->add("serve.queue_wait", s.enqueue_ns, hook, root, s.id);
      tracer->add("serve.batch_service", hook, s.done_ns, root, s.id);
      if (open) {
        round.queue_wait_us.push_back(static_cast<double>(hook - s.enqueue_ns) * 1e-3);
        open_batches.emplace_back(hook, s.done_ns);
      } else {
        closed_batches.emplace_back(hook, s.done_ns);
        ++closed_members;
      }
    }
    for (auto* batches : {&open_batches, &closed_batches}) {
      std::sort(batches->begin(), batches->end());
      batches->erase(std::unique(batches->begin(), batches->end()), batches->end());
    }
    for (const auto& [hook, done] : open_batches) {
      round.batch_service_us.push_back(static_cast<double>(done - hook) * 1e-3);
    }
    round.batch_size_mean = closed_batches.empty()
                                ? 0.0
                                : static_cast<double>(closed_members) /
                                      static_cast<double>(closed_batches.size());
  }
  return round;
}

/// Installs the hook that records when each batch reaches its replica.
void install_batch_hook(serve::ServerConfig& config) {
  config.batch_hook = [](int /*replica*/, std::vector<serve::Request>& batch) {
    g_hooks.record(batch);
  };
}

}  // namespace perfbench
