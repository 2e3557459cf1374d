#include "src/serve/inference_server.hpp"

#include "src/common/check.hpp"
#include "src/common/logging.hpp"
#include "src/tensor/tensor_ops.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <string>
#include <utility>

namespace ftpim::serve {
namespace {

/// Seed of the known-answer canary inputs (make_canary_set).
constexpr std::uint64_t kCanarySeed = 1234;

/// Best-effort message extraction for wrapping a failed attempt's error.
FTPIM_COLD std::string describe(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    log_debug("serve: failed attempt threw a non-std::exception payload");
    return "unknown error";
  }
}

/// Logs a forward pass (batch or canary) that threw; the caller counts it in
/// ServerStats::worker_exceptions.
FTPIM_COLD void log_worker_exception(const char* where, const std::exception_ptr& error) {
  log_warn("serve: %s threw: %s", where, describe(error).c_str());
}

}  // namespace

InferenceServer::InferenceServer(const Module& model, const ServerConfig& config)
    : config_(config),
      pool_(model, config.pool),
      clock_(config.clock != nullptr ? config.clock : &default_clock_),
      queue_(config.queue_capacity),
      aging_(config.aging) {
  config_.batching.validate();
  config_.health.validate();
  FTPIM_CHECK_GE(config.max_attempts, 1, "ServerConfig: max_attempts");
  FTPIM_CHECK_GE(config.default_deadline_ns, std::int64_t{0}, "ServerConfig: default_deadline_ns");
  MutexLock lock(mu_);
  stats_.canary_every_batches = config_.health.canary_every_batches;
  stats_.health_window_capacity = config_.health.window;
  stats_.replicas.assign(static_cast<std::size_t>(pool_.size()), ReplicaStats{});
}

InferenceServer::~InferenceServer() { stop(); }

FTPIM_COLD void InferenceServer::reject(Request&& request, ServeError::Kind kind,
                                        const char* why) {
  (void)answer_error(request, std::make_exception_ptr(ServeError(kind, why)));
  MutexLock lock(mu_);
  if (kind == ServeError::kQueueFull) {
    ++stats_.rejected_queue_full;
  } else {
    ++stats_.rejected_stopped;
  }
  --stats_.submitted;
  --stats_.in_flight;
  if (stats_.in_flight == 0) drained_.notify_all();
}

FTPIM_COLD void InferenceServer::finish_with_error(Request& request, ServeError::Kind kind,
                                                   const std::string& why) {
  const bool delivered = answer_error(request, std::make_exception_ptr(ServeError(kind, why)));
  MutexLock lock(mu_);
  ++stats_.failed;
  if (kind == ServeError::kDeadlineExceeded) ++stats_.expired;
  if (!delivered) ++stats_.poisoned;
  --stats_.in_flight;
  if (stats_.in_flight == 0) drained_.notify_all();
}

std::future<InferenceResult> InferenceServer::submit(Tensor input) {
  return submit(std::move(input), SubmitOptions{});
}

std::future<InferenceResult> InferenceServer::submit(Tensor input, const SubmitOptions& options) {
  FTPIM_CHECK_EQ(input.rank(), std::size_t{3}, "InferenceServer::submit: input must be [C,H,W]");
  FTPIM_CHECK_GE(options.deadline_ns, std::int64_t{0}, "SubmitOptions: deadline_ns");
  FTPIM_CHECK_GE(options.max_attempts, 0, "SubmitOptions: max_attempts");
  Request req;
  req.input = std::move(input);
  req.enqueue_ns = clock_->now_ns();
  const std::int64_t relative_deadline =
      options.deadline_ns > 0 ? options.deadline_ns : config_.default_deadline_ns;
  req.deadline_ns = relative_deadline > 0 ? req.enqueue_ns + relative_deadline : kNoDeadlineNs;
  req.attempts_left = options.max_attempts > 0 ? options.max_attempts : config_.max_attempts;
  std::future<InferenceResult> fut = req.promise.get_future();

  {
    MutexLock lock(mu_);
    if (state_ == State::kStopped) {
      // Reject inline (under the same lock as the counter) — queue is closed.
      (void)answer_error(req,
                         std::make_exception_ptr(ServeError(ServeError::kStopped,
                                                            "InferenceServer: stopped")));
      ++stats_.rejected_stopped;
      return fut;
    }
    if (input_shape_.empty()) {
      input_shape_ = req.input.shape();
    } else {
      FTPIM_CHECK(req.input.shape() == input_shape_,
                  "InferenceServer::submit: input shape %s differs from the server's %s",
                  shape_to_string(req.input.shape()).c_str(),
                  shape_to_string(input_shape_).c_str());
    }
    req.id = next_id_++;
    // Count before the push so drain() never observes an accepted-but-
    // uncounted request; reject() rolls this back on push failure.
    ++stats_.submitted;
    ++stats_.in_flight;
  }

  // The (possibly blocking) push runs outside mu_ — workers take mu_ to
  // publish batch results and must stay able to while a client waits here.
  const bool accepted = config_.overflow == OverflowPolicy::kBlock
                            ? queue_.push(std::move(req))
                            : queue_.try_push(std::move(req));
  if (!accepted) {
    // push/try_push leave the request intact on failure. A blocking push
    // only fails when the queue closed underneath it.
    if (config_.overflow == OverflowPolicy::kBlock || queue_.closed()) {
      reject(std::move(req), ServeError::kStopped, "InferenceServer: stopped");
    } else {
      reject(std::move(req), ServeError::kQueueFull, "InferenceServer: queue full");
    }
  }
  return fut;
}

void InferenceServer::start() {
  {
    MutexLock lock(mu_);
    FTPIM_CHECK(state_ == State::kIdle, "InferenceServer::start: already started");
    state_ = State::kRunning;
  }
  workers_.reserve(static_cast<std::size_t>(pool_.size()));
  for (int r = 0; r < pool_.size(); ++r) {
    workers_.emplace_back([this, r] { worker_loop(r); });
  }
  log_debug("serve: started %d worker(s), queue capacity %zu", pool_.size(),
            queue_.capacity());
}

void InferenceServer::drain() {
  MutexLock lock(mu_);
  FTPIM_CHECK(state_ == State::kRunning, "InferenceServer::drain: server not running");
  while (stats_.in_flight > 0) drained_.wait(lock);
}

void InferenceServer::stop() {
  {
    MutexLock lock(mu_);
    if (state_ == State::kStopped) return;
    state_ = State::kStopped;
  }
  queue_.close();  // workers flush the remaining accepted requests, then exit
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  // Never-started servers have no workers; answer whatever is still queued so
  // no future is left dangling with a broken promise.
  Request leftover;
  while (queue_.try_pop(leftover)) {
    const bool delivered = answer_error(
        leftover, std::make_exception_ptr(
                      ServeError(ServeError::kStopped, "InferenceServer: stopped before serving")));
    MutexLock lock(mu_);
    ++stats_.rejected_stopped;
    if (!delivered) ++stats_.poisoned;
    --stats_.in_flight;
    if (stats_.in_flight == 0) drained_.notify_all();
  }
}

bool InferenceServer::running() const {
  MutexLock lock(mu_);
  return state_ == State::kRunning;
}

ServerStats InferenceServer::stats() const {
  ServerStats out;
  {
    MutexLock lock(mu_);
    out = stats_;
  }
  out.queue_depth = queue_.size();
  return out;
}

FTPIM_HOT bool InferenceServer::triage(int replica_id, Request& request) {
  if (request.deadline_ns <= clock_->now_ns()) {
    finish_with_error(request, ServeError::kDeadlineExceeded,
                      "InferenceServer: deadline passed while queued");
    return false;
  }
  if (!request.excludes(replica_id)) return true;
  // This replica already failed the request — hand it to a different one.
  // try_push (never a blocking push): a worker that blocks on its own queue
  // can deadlock the fleet. The residual spin — this worker re-popping a
  // request only others may serve — is bounded by their forward-pass time.
  if (static_cast<int>(request.excluded.size()) < pool_.size() &&
      queue_.try_push(std::move(request))) {
    return false;
  }
  finish_with_error(request, ServeError::kExhausted,
                    "InferenceServer: no replica left to fail over to");
  return false;
}

FTPIM_HOT void InferenceServer::worker_loop(int replica_id) noexcept {
  ReplicaRecord health(config_.health.window);
  BatchStage stage;
  std::vector<Request> batch;
  batch.reserve(static_cast<std::size_t>(config_.batching.max_batch_size));
  while (true) {
    Request first;
    if (!queue_.pop(first)) break;  // closed and drained -> exit
    if (!triage(replica_id, first)) continue;
    batch.clear();
    batch.push_back(std::move(first));
    const std::int64_t open_ns = clock_->now_ns();

    // Coalesce: greedily take what is already queued; once the queue runs
    // dry, wait out the remaining linger budget (per the injectable clock;
    // the bounded cv-wait itself is real time).
    while (!config_.batching.full(static_cast<std::int64_t>(batch.size()))) {
      Request more;
      if (queue_.try_pop(more)) {
        if (triage(replica_id, more)) batch.push_back(std::move(more));
        continue;
      }
      const std::int64_t remaining =
          config_.batching.remaining_linger_ns(clock_->now_ns(), open_ns);
      if (remaining == 0) break;
      if (queue_.pop_for(more, remaining) != PopResult::kItem) break;  // expired or closing
      if (triage(replica_id, more)) batch.push_back(std::move(more));
    }
    if (batch.empty()) continue;  // triage answered/re-routed everything
    run_batch(replica_id, batch, health, stage);
    maintain(replica_id, health, stage.request_shape);
  }
}

FTPIM_COLD Tensor& InferenceServer::BatchStage::materialize(const Shape& sample_shape,
                                                            std::int64_t batch_size) {
  const auto idx = static_cast<std::size_t>(batch_size - 1);
  if (idx >= staged.size()) staged.resize(idx + 1);
  request_shape = sample_shape;
  Shape batched_shape;
  batched_shape.reserve(sample_shape.size() + 1);
  batched_shape.push_back(batch_size);
  batched_shape.insert(batched_shape.end(), sample_shape.begin(), sample_shape.end());
  staged[idx] = Tensor(std::move(batched_shape));
  return staged[idx];
}

FTPIM_HOT void InferenceServer::run_batch(int replica_id, std::vector<Request>& batch,
                                          ReplicaRecord& health, BatchStage& stage) {
  const auto batch_size = static_cast<std::int64_t>(batch.size());
  const Shape& sample_shape = batch.front().input.shape();
  Tensor& inputs = stage.input_for(sample_shape, batch_size);
  const std::int64_t sample_numel = batch.front().input.numel();
  for (std::int64_t i = 0; i < batch_size; ++i) {
    std::memcpy(inputs.data() + i * sample_numel,
                batch[static_cast<std::size_t>(i)].input.data(),
                static_cast<std::size_t>(sample_numel) * sizeof(float));
  }

  bool ok = true;
  std::exception_ptr error;
  Tensor logits;
  try {
    if (config_.batch_hook) config_.batch_hook(replica_id, batch);
    logits = pool_.replica(replica_id).forward(inputs, /*training=*/false);
    FTPIM_CHECK_EQ(logits.rank(), std::size_t{2}, "serve: model output must be [N, classes]");
    FTPIM_CHECK_EQ(logits.dim(0), batch_size, "serve: model output batch mismatch");
  } catch (...) {
    ok = false;
    error = std::current_exception();
  }
  ++health.batches_since_repair;
  health.window.record(ok);

  const std::int64_t done_ns = clock_->now_ns();
  if (ok) {
    const std::int64_t classes = logits.dim(1);
    std::int64_t answered = 0;
    std::int64_t dead = 0;
    for (std::int64_t i = 0; i < batch_size; ++i) {
      Request& req = batch[static_cast<std::size_t>(i)];
      InferenceResult res;
      res.logits = Tensor(Shape{classes});
      std::memcpy(res.logits.data(), logits.data() + i * classes,
                  static_cast<std::size_t>(classes) * sizeof(float));
      res.predicted = argmax_row(logits, i);
      res.replica_id = replica_id;
      res.batch_size = batch_size;
      res.latency_ns = std::max<std::int64_t>(std::int64_t{0}, done_ns - req.enqueue_ns);
      // A poisoned promise (already satisfied/abandoned) must not take down
      // its batchmates; the slot is counted, not thrown.
      if (answer(req, std::move(res))) {
        ++answered;
      } else {
        ++dead;
      }
    }
    MutexLock lock(mu_);
    ++stats_.batches;
    stats_.served += answered;
    stats_.poisoned += dead;
    stats_.replicas[static_cast<std::size_t>(replica_id)].served += answered;
    for (const Request& req : batch) {
      stats_.latency.record(std::max<std::int64_t>(std::int64_t{0}, done_ns - req.enqueue_ns));
    }
    stats_.in_flight -= batch_size;
    if (stats_.in_flight == 0) drained_.notify_all();
    return;
  }
  fail_batch(replica_id, batch, error, done_ns);
}

FTPIM_COLD void InferenceServer::fail_batch(int replica_id, std::vector<Request>& batch,
                                            const std::exception_ptr& error,
                                            std::int64_t done_ns) {
  // Failed attempt: every request burns one attempt and excludes this
  // replica; those with budget, time, and an alternative replica left go
  // back into the queue for failover, the rest fail with a typed error.
  log_worker_exception("batch forward pass", error);
  const auto batch_size = static_cast<std::int64_t>(batch.size());
  const std::string cause = describe(error);
  std::int64_t requeued = 0;
  {
    MutexLock lock(mu_);
    ++stats_.batches;
    ++stats_.worker_exceptions;
  }
  for (std::int64_t i = 0; i < batch_size; ++i) {
    Request& req = batch[static_cast<std::size_t>(i)];
    req.excluded.push_back(replica_id);
    --req.attempts_left;
    const bool time_left = req.deadline_ns > done_ns;
    const bool has_alternative = static_cast<int>(req.excluded.size()) < pool_.size();
    if (req.attempts_left > 0 && time_left && has_alternative &&
        queue_.try_push(std::move(req))) {
      ++requeued;  // still in flight; another worker owns it now
      continue;
    }
    if (!time_left) {
      finish_with_error(req, ServeError::kDeadlineExceeded,
                        "InferenceServer: deadline passed during retry (last error: " + cause +
                            ")");
    } else {
      finish_with_error(req, ServeError::kExhausted,
                        "InferenceServer: attempts exhausted (last error: " + cause + ")");
    }
  }
  MutexLock lock(mu_);
  stats_.retried += requeued;
}

FTPIM_COLD void InferenceServer::maintain(int replica_id, ReplicaRecord& health,
                                          const Shape& sample_shape) {
  // Counter increments collect here; the last step publishes them with the
  // replica's gauges under one lock acquisition.
  MaintenanceCounters tally;

  // 0. ABFT: drain the checksum-detection reports the batch just accumulated.
  // A flagged batch records one failure outcome and is answered with an
  // in-place scrub of the named tiles; once max_scrub_retries consecutive
  // batches stay flagged the fault is persistent — scrubbing cannot help —
  // and the replica's quarantine is pinned so step 3 runs the full repair
  // path.
  if (pool_.abft_armed()) {
    const std::vector<abft::TileFaultReport> reports = pool_.take_abft_reports(replica_id);
    std::int64_t mismatches = 0;
    std::int64_t flagged = 0;
    for (const abft::TileFaultReport& r : reports) {
      mismatches += r.mismatches;
      flagged += r.flagged_tiles();
    }
    if (mismatches > 0) {
      health.window.record(false);
      ++health.consecutive_detections;
      ++tally.abft_detections;
      tally.abft_flagged_tiles += flagged;
      if (health.consecutive_detections <= config_.health.max_scrub_retries) {
        tally.abft_scrubbed_tiles += pool_.scrub(replica_id, reports);
        ++tally.abft_scrubs;
      } else {
        health.pinned = true;
        ++tally.abft_escalations;
      }
    } else {
      health.consecutive_detections = 0;
    }
  }

  // 1. Aging: the replica's defect map grows with its served-batch count.
  if (config_.aging.enabled()) {
    tally.aged_cells += pool_.advance_aging(replica_id, aging_,
                                            aging_.intervals_at(health.batches_since_repair));
  }

  // 1.5 Periodic background refresh (ScrubPolicy::kPeriodic): every
  // scrub_every_batches served batches, re-program the whole replica from
  // retained state and re-apply its persistent map — transient damage heals
  // on a schedule instead of waiting for a detector or a canary miss. Runs
  // after aging so the tick ends on a freshly programmed die.
  if (config_.health.scrub_policy == ScrubPolicy::kPeriodic &&
      ++health.batches_since_scrub >= config_.health.scrub_every_batches) {
    health.batches_since_scrub = 0;
    pool_.refresh(replica_id);
    ++tally.periodic_refreshes;
  }

  // 2. Canary: every canary_every_batches served batches, run the known-
  // answer probes and score against the pristine model's golden outputs.
  if (config_.health.canary_every_batches > 0 &&
      ++health.batches_since_canary >= config_.health.canary_every_batches) {
    health.batches_since_canary = 0;
    std::call_once(canary_once_, [&] {
      canary_ = make_canary_set(pool_.source(), sample_shape, config_.health.canary_samples,
                                kCanarySeed);
    });
    int passed = 0;
    try {
      const Tensor logits = pool_.replica(replica_id).forward(canary_.inputs, /*training=*/false);
      passed = score_canary(logits, canary_);
    } catch (...) {
      passed = 0;  // a canary forward that throws fails every probe
      log_worker_exception("canary probe", std::current_exception());
      ++tally.worker_exceptions;
    }
    for (int i = 0; i < config_.health.canary_samples; ++i) health.window.record(i < passed);
    ++tally.canary_batches;
    tally.canary_failures += config_.health.canary_samples - passed;
  }

  // 3. Quarantine detection and (optional) in-place repair.
  const ReplicaHealth state = health_state(health, config_.health);
  if (state == ReplicaHealth::kQuarantined && health.last_state != ReplicaHealth::kQuarantined) {
    ++tally.quarantines;
  }
  health.last_state = state;
  if (state == ReplicaHealth::kQuarantined && config_.health.repair_on_quarantine) {
    pool_.repair(replica_id);  // fresh clone of the pristine source + fresh map
    health.mark_repaired();
    ++tally.repairs;
  }

  // 4. Publish. A quarantine repaired above shows only in the counters.
  MutexLock lock(mu_);
  stats_ += tally;
  ReplicaStats& row = stats_.replicas[static_cast<std::size_t>(replica_id)];
  row.health = health.window.success_rate();
  row.state = health.last_state;
  row.repairs = health.repairs;
  row.window_size = health.window.size();
  row.canary_progress = health.batches_since_canary;
}

}  // namespace ftpim::serve
