// Asynchronous dynamically-batched inference over a self-healing fleet of
// defective replicas — the serving layer (DESIGN.md "Serving layer" and
// "Failure handling & self-healing").
//
// Architecture: clients submit() single samples and get a std::future; the
// requests land in one bounded FIFO RequestQueue; each replica of the
// ReplicaPool is owned by exactly one worker thread that pops requests,
// coalesces them into batches under the BatchingPolicy, runs one batched
// forward pass on its (persistently faulted) clone, and fulfills the
// promises. Because a worker is the sole driver of its replica, the model
// hot path is lock-free; the only shared state is the queue and the stats
// block, each behind its own annotated Mutex. Each worker also owns its
// replica's health record (health_monitor.hpp) and publishes the record's
// gauges into the stats block once per batch.
//
// Robustness (this is what makes the fleet self-healing):
//
//   * Deadlines — a request may carry an absolute deadline; workers drop
//     requests whose deadline already passed, and the future reports it as
//     the typed ServeError kind kDeadlineExceeded.
//   * Retry & failover — a failed forward pass burns one of the request's
//     attempts and re-queues it with the failing replica excluded, so a
//     different device gets the next try. When the budget, the deadline, or
//     the fleet runs out, the future reports kDeadlineExceeded/kExhausted.
//   * Health & repair — every batch, ABFT detection and periodic
//     known-answer canary probe (golden outputs from the pristine source
//     model) feeds the replica's health record; replicas scoring below
//     threshold are quarantined and
//     (by default) repaired in place: re-cloned from the pristine source
//     with a fresh defect map.
//   * In-service aging — an AgingModel deterministically grows each
//     replica's defect map with served-batch count, so fleets degrade, get
//     caught by canaries, and heal, all inside one process.
//
// Lifecycle: construct -> [submit()...] -> start() -> traffic -> stop().
// submit() is legal before start() (requests queue up; this is what makes
// the deterministic single-worker test mode possible) and after stop() it
// rejects. drain() blocks until every accepted request has been answered.
// stop() is graceful: the queue closes, workers flush every remaining
// accepted request, then exit — a drained shutdown loses nothing. The
// destructor stop()s.
//
// Determinism: with one worker, requests submitted in a fixed order before
// start(), max_linger_ns = 0, and a ManualServeClock, batch composition,
// outputs, aging, quarantines, repairs, and every stat (latency histogram
// included) are bit-identical across runs — see tests/serve_server_test.cpp
// and tests/serve_health_test.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/annotations.hpp"
#include "src/common/thread_annotations.hpp"
#include "src/core/evaluator.hpp"
#include "src/nn/module.hpp"
#include "src/reram/aging.hpp"
#include "src/serve/batching_policy.hpp"
#include "src/serve/clock.hpp"
#include "src/serve/health_monitor.hpp"
#include "src/serve/replica_pool.hpp"
#include "src/serve/request_queue.hpp"
#include "src/serve/serve_error.hpp"
#include "src/serve/server_stats.hpp"

namespace ftpim::serve {

/// What submit() does when the queue is full.
enum class OverflowPolicy {
  kBlock,   ///< backpressure: block the client until space frees up
  kReject,  ///< fail fast: the returned future throws ServeError(kQueueFull)
};

struct ServerConfig {
  std::size_t queue_capacity = 256;
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  BatchingPolicy batching{};
  ReplicaPoolConfig pool{};
  /// Time source for linger decisions and latency stats; nullptr = monotonic
  /// wall clock. Non-owning — must outlive the server.
  ServeClock* clock = nullptr;
  /// Deadline applied to submits that don't carry their own (relative to
  /// enqueue time; 0 = no deadline).
  std::int64_t default_deadline_ns = 0;
  /// Forward passes a request may consume before its future fails (>= 1).
  /// Each failed attempt excludes the failing replica and re-queues.
  int max_attempts = 1;
  /// Replica health scoring, canary cadence, and repair policy.
  HealthConfig health{};
  /// In-service defect growth.
  AgingConfig aging{};
  /// Test/chaos hook: runs just before each batch's forward pass on the
  /// worker thread. May throw (treated exactly like a forward failure — the
  /// retry/failover path) or tamper with the batch's promises (the poisoned-
  /// request path). Leave empty in production.
  std::function<void(int replica_id, std::vector<Request>& batch)> batch_hook;
};

/// Per-request overrides for submit().
struct SubmitOptions {
  std::int64_t deadline_ns = 0;  ///< relative to enqueue; 0 = config default
  int max_attempts = 0;          ///< 0 = config default
};

class InferenceServer {
 public:
  /// Builds the replica fleet from `model` (cloned; never mutated).
  InferenceServer(const Module& model, const ServerConfig& config);

  /// Graceful stop() — flushes in-flight requests before returning.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueues one sample ([C,H,W], same shape for every request) and returns
  /// the future answer. All failure modes are delivered through the future
  /// as ServeError (see serve_error.hpp for the kind taxonomy).
  [[nodiscard]] std::future<InferenceResult> submit(Tensor input);
  [[nodiscard]] std::future<InferenceResult> submit(Tensor input, const SubmitOptions& options);

  /// Spawns one worker thread per replica. Call once.
  void start();

  /// Blocks until every accepted request has been answered (queue empty and
  /// nothing in flight). Requires start(); the server keeps serving after.
  void drain();

  /// Graceful shutdown: stop intake, flush every accepted request, join the
  /// workers. Idempotent. Safe to call without start() (queued requests are
  /// then answered with ServeError(kStopped) — no worker ever ran them).
  void stop();

  [[nodiscard]] bool running() const;

  /// Point-in-time metrics snapshot (see ServerStats).
  [[nodiscard]] ServerStats stats() const;

  /// The underlying fleet — e.g. to measure per-replica accuracy offline.
  /// Do not drive replicas while the server is running.
  [[nodiscard]] ReplicaPool& pool() noexcept { return pool_; }
  [[nodiscard]] const ReplicaPool& pool() const noexcept { return pool_; }

  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }

 private:
  /// Per-worker reusable staging for batched inputs: one Tensor per batch
  /// size, materialized on first use and overwritten in full on every later
  /// batch of that size, so steady-state dispatch allocates nothing. Owned
  /// by the worker thread — never shared.
  struct BatchStage {
    std::vector<Tensor> staged;  ///< index = batch_size - 1
    Shape request_shape;         ///< every request's [C,H,W], set by materialize()

    FTPIM_HOT [[nodiscard]] Tensor& input_for(const Shape& sample_shape,
                                              std::int64_t batch_size) {
      const auto idx = static_cast<std::size_t>(batch_size - 1);
      if (idx >= staged.size() || staged[idx].numel() == 0) {
        return materialize(sample_shape, batch_size);
      }
      return staged[idx];
    }

    FTPIM_COLD Tensor& materialize(const Shape& sample_shape, std::int64_t batch_size);
  };

  void worker_loop(int replica_id) noexcept;
  /// Deadline/exclusion triage for a freshly popped request. True = the
  /// request belongs in this worker's batch; false = it was re-queued for
  /// another replica or answered with a ServeError.
  [[nodiscard]] bool triage(int replica_id, Request& request);
  void run_batch(int replica_id, std::vector<Request>& batch, ReplicaRecord& health,
                 BatchStage& stage);
  /// Slow path of run_batch: the forward pass threw. Logs the cause, burns
  /// one attempt per request, re-queues those with budget/time/alternatives
  /// left, answers the rest with typed errors.
  void fail_batch(int replica_id, std::vector<Request>& batch,
                  const std::exception_ptr& error, std::int64_t done_ns);
  /// Post-batch upkeep: ABFT scrubs, aging, periodic refresh, canary probes,
  /// quarantine detection and repair. Publishes its counters and the
  /// replica's gauges into stats_ under one lock acquisition.
  void maintain(int replica_id, ReplicaRecord& health, const Shape& sample_shape);
  /// Rejects a not-yet-accepted request (rolls back submit accounting).
  void reject(Request&& request, ServeError::Kind kind, const char* why);
  /// Answers an ACCEPTED request with a typed error and settles its
  /// in-flight accounting.
  void finish_with_error(Request& request, ServeError::Kind kind, const std::string& why);

  ServerConfig config_;
  ReplicaPool pool_;
  SteadyServeClock default_clock_;
  ServeClock* clock_;  ///< config_.clock or &default_clock_
  RequestQueue queue_;
  AgingModel aging_;

  std::once_flag canary_once_;
  CanarySet canary_;  ///< written once under canary_once_, then read-only

  enum class State { kIdle, kRunning, kStopped };

  mutable Mutex mu_;
  CondVar drained_;  ///< signaled when stats_.in_flight hits zero
  State state_ FTPIM_GUARDED_BY(mu_) = State::kIdle;
  std::uint64_t next_id_ FTPIM_GUARDED_BY(mu_) = 0;
  /// Every counter, the per-replica rows and the latency histogram live
  /// here and nowhere else; stats() copies it and adds the queue depth.
  ServerStats stats_ FTPIM_GUARDED_BY(mu_);
  Shape input_shape_ FTPIM_GUARDED_BY(mu_);  ///< pinned by the first submit()

  std::vector<std::thread> workers_;  ///< touched only by start()/stop()
};

}  // namespace ftpim::serve
