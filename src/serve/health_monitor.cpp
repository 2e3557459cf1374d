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

void ReplicaRecord::mark_repaired() noexcept {
  window.reset();
  pinned = false;
  ++repairs;
  batches_since_repair = 0;
  batches_since_canary = 0;
  batches_since_scrub = 0;
  consecutive_detections = 0;
  last_state = ReplicaHealth::kHealthy;
}

ReplicaHealth health_state(const ReplicaRecord& record, const HealthConfig& config) noexcept {
  // A pinned quarantine (exhausted scrub retries) overrides the score: the
  // detection signal is exact, so it needs no min_samples evidence gate.
  if (record.pinned) return ReplicaHealth::kQuarantined;
  if (record.window.size() < config.min_samples) return ReplicaHealth::kHealthy;
  const double score = record.window.success_rate();
  if (score < config.quarantine_below) return ReplicaHealth::kQuarantined;
  if (score < config.suspect_below) return ReplicaHealth::kSuspect;
  return ReplicaHealth::kHealthy;
}

}  // namespace ftpim::serve
