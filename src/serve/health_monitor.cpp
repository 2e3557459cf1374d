#include "src/serve/health_monitor.hpp"

#include "src/common/check.hpp"

namespace ftpim::serve {

const char* to_string(ReplicaHealth state) noexcept {
  switch (state) {
    case ReplicaHealth::kHealthy: return "healthy";
    case ReplicaHealth::kSuspect: return "suspect";
    case ReplicaHealth::kQuarantined: return "quarantined";
  }
  return "unknown";
}

const char* to_string(ScrubPolicy policy) noexcept {
  switch (policy) {
    case ScrubPolicy::kDetectionDriven: return "detection-driven";
    case ScrubPolicy::kPeriodic: return "periodic";
  }
  return "unknown";
}

void HealthConfig::validate() const {
  FTPIM_CHECK_GT(window, 0, "HealthConfig: window");
  FTPIM_CHECK_GT(min_samples, 0, "HealthConfig: min_samples");
  FTPIM_CHECK(min_samples <= window, "HealthConfig: min_samples %d exceeds window %d",
              min_samples, window);
  FTPIM_CHECK(suspect_below >= 0.0 && suspect_below <= 1.0,
              "HealthConfig: suspect_below %g outside [0,1]", suspect_below);
  FTPIM_CHECK(quarantine_below >= 0.0 && quarantine_below <= 1.0,
              "HealthConfig: quarantine_below %g outside [0,1]", quarantine_below);
  FTPIM_CHECK(quarantine_below <= suspect_below,
              "HealthConfig: quarantine_below %g must not exceed suspect_below %g",
              quarantine_below, suspect_below);
  FTPIM_CHECK_GE(canary_every_batches, std::int64_t{0}, "HealthConfig: canary_every_batches");
  FTPIM_CHECK_GT(canary_samples, 0, "HealthConfig: canary_samples");
  FTPIM_CHECK_GE(max_scrub_retries, 0, "HealthConfig: max_scrub_retries");
  FTPIM_CHECK_GE(scrub_every_batches, std::int64_t{0}, "HealthConfig: scrub_every_batches");
  FTPIM_CHECK(scrub_policy != ScrubPolicy::kPeriodic || scrub_every_batches > 0,
              "HealthConfig: ScrubPolicy::kPeriodic requires scrub_every_batches > 0");
}

HealthMonitor::HealthMonitor(int num_replicas, const HealthConfig& config) : config_(config) {
  FTPIM_CHECK_GT(num_replicas, 0, "HealthMonitor: num_replicas");
  config.validate();
  replicas_.reserve(static_cast<std::size_t>(num_replicas));
  for (int r = 0; r < num_replicas; ++r) replicas_.emplace_back(config.window);
}

const HealthMonitor::ReplicaRecord& HealthMonitor::at(int replica_id) const {
  FTPIM_CHECK(replica_id >= 0 && replica_id < num_replicas(),
              "HealthMonitor: replica_id %d outside [0,%d)", replica_id, num_replicas());
  return replicas_[static_cast<std::size_t>(replica_id)];
}

HealthMonitor::ReplicaRecord& HealthMonitor::at(int replica_id) {
  return const_cast<ReplicaRecord&>(static_cast<const HealthMonitor*>(this)->at(replica_id));
}

void HealthMonitor::record(int replica_id, bool success, int count) {
  FTPIM_CHECK_GE(count, 0, "HealthMonitor::record: count");
  MutexLock lock(mu_);
  ReplicaRecord& r = at(replica_id);
  for (int i = 0; i < count; ++i) r.window.record(success);
}

double HealthMonitor::score(int replica_id) const {
  MutexLock lock(mu_);
  return at(replica_id).window.success_rate();
}

ReplicaHealth HealthMonitor::state_locked(const ReplicaRecord& r) const {
  // A forced quarantine (exhausted scrub retries) overrides the score: the
  // detection signal is exact, so it needs no min_samples evidence gate.
  if (r.forced_quarantine) return ReplicaHealth::kQuarantined;
  if (r.window.size() < config_.min_samples) return ReplicaHealth::kHealthy;
  const double s = r.window.success_rate();
  if (s < config_.quarantine_below) return ReplicaHealth::kQuarantined;
  if (s < config_.suspect_below) return ReplicaHealth::kSuspect;
  return ReplicaHealth::kHealthy;
}

ReplicaHealth HealthMonitor::state(int replica_id) const {
  MutexLock lock(mu_);
  return state_locked(at(replica_id));
}

void HealthMonitor::mark_repaired(int replica_id) {
  MutexLock lock(mu_);
  ReplicaRecord& r = at(replica_id);
  r.window.reset();
  r.forced_quarantine = false;
  ++r.repairs;
}

void HealthMonitor::force_quarantine(int replica_id) {
  MutexLock lock(mu_);
  at(replica_id).forced_quarantine = true;
}

std::vector<HealthMonitor::Snapshot> HealthMonitor::snapshot() const {
  MutexLock lock(mu_);
  std::vector<Snapshot> out;
  out.reserve(replicas_.size());
  for (const ReplicaRecord& r : replicas_) {
    Snapshot s;
    s.score = r.window.success_rate();
    s.state = state_locked(r);
    s.repairs = r.repairs;
    s.window_size = r.window.size();
    s.window_capacity = config_.window;
    s.forced = r.forced_quarantine;
    out.push_back(s);
  }
  return out;
}

}  // namespace ftpim::serve
