#include "src/fleet/repair_policy.hpp"

#include "src/common/check.hpp"

namespace ftpim::fleet {

const char* to_string(RepairActionKind action) noexcept {
  switch (action) {
    case RepairActionKind::kNone: return "none";
    case RepairActionKind::kScrub: return "scrub";
    case RepairActionKind::kRepair: return "repair";
  }
  return "unknown";
}

const char* to_string(RepairPolicyKind kind) noexcept {
  switch (kind) {
    case RepairPolicyKind::kNeverRepair: return "never_repair";
    case RepairPolicyKind::kCanaryGated: return "canary_gated";
    case RepairPolicyKind::kScheduledRefresh: return "scheduled_refresh";
    case RepairPolicyKind::kDetectionDrivenScrub: return "detection_driven_scrub";
  }
  return "unknown";
}

RepairPolicyKind parse_repair_policy(const std::string& name) {
  for (RepairPolicyKind kind : kAllRepairPolicies) {
    if (name == to_string(kind)) return kind;
  }
  FTPIM_CHECK(false,
              "unknown repair policy '%s' (want never_repair|canary_gated|"
              "scheduled_refresh|detection_driven_scrub)",
              name.c_str());
}

void RepairPolicyConfig::validate() const {
  FTPIM_CHECK(window >= 1, "repair policy: window %d must be >= 1", window);
  FTPIM_CHECK(min_samples >= 1, "repair policy: min_samples %d must be >= 1", min_samples);
  FTPIM_CHECK(repair_below >= 0.0 && repair_below <= 1.0,
              "repair policy: repair_below %.3f outside [0, 1]", repair_below);
  FTPIM_CHECK(refresh_every_ticks >= 1, "repair policy: refresh_every_ticks %lld must be >= 1",
              static_cast<long long>(refresh_every_ticks));
  FTPIM_CHECK(max_scrub_retries >= 0, "repair policy: max_scrub_retries %d must be >= 0",
              max_scrub_retries);
}

RepairActionKind decide_repair(RepairPolicyKind kind, const RepairPolicyConfig& config,
                               const DeviceStatus& status) {
  switch (kind) {
    case RepairPolicyKind::kNeverRepair: return RepairActionKind::kNone;
    case RepairPolicyKind::kCanaryGated:
      // Evidence gate first: an empty or barely-filled window scores 1.0-ish
      // on tiny sample counts, so no verdict until min_samples outcomes exist.
      if (status.window_size < config.min_samples) return RepairActionKind::kNone;
      return status.window_score < config.repair_below ? RepairActionKind::kRepair
                                                       : RepairActionKind::kNone;
    case RepairPolicyKind::kScheduledRefresh:
      // Blind cadence: re-program the die on schedule regardless of health.
      // Heals transients; persistent (manufacturing + aging) faults come back.
      return status.ticks_since_heal >= config.refresh_every_ticks ? RepairActionKind::kScrub
                                                                   : RepairActionKind::kNone;
    case RepairPolicyKind::kDetectionDrivenScrub:
      // A detection streak that survives the scrub budget means scrubbing is
      // not fixing the cause (persistent faults resurface with the map), so
      // escalate to a swap — the same ladder maintain() walks in src/serve.
      if (status.consecutive_detections > config.max_scrub_retries) {
        return RepairActionKind::kRepair;
      }
      return status.abft_flagged ? RepairActionKind::kScrub : RepairActionKind::kNone;
  }
  FTPIM_CHECK(false, "unknown repair policy kind %d", static_cast<int>(kind));
}

}  // namespace ftpim::fleet
