// In-service repair policies for the fleet simulator.
//
// Every simulated tick each live device summarizes its observable state into
// a DeviceStatus — the probe accuracy it just measured, its sliding-window
// score, whether ABFT flagged the tick, how long the current detection streak
// is, and how long since the die was last re-programmed — and asks
// decide_repair what its policy does about it. The answer is one of three
// actions:
//
//   kNone    keep serving;
//   kScrub   background refresh (ReplicaPool::refresh): re-program the die
//            and re-apply the persistent map — transient damage heals,
//            manufacturing/aging faults come back; cheap;
//   kRepair  swap the device (ReplicaPool::repair): new die, new map, next
//            seed generation; expensive.
//
// decide_repair is a STATELESS decision: all evolving inputs arrive through
// DeviceStatus, which lives in the device — so checkpointing the devices
// checkpoints the policy, and concurrent device workers may call it freely.
//
// The four built-ins bracket the fleet-maintenance design space the paper's
// mass-produced-device story implies:
//   never_repair            the paper's one-shot deployment baseline;
//   canary_gated            today's serve-layer behavior (window score below
//                           a threshold -> swap), see src/serve;
//   scheduled_refresh       periodic background re-programming, the
//                           simulator-side mirror of the serve layer's
//                           ScrubPolicy::kPeriodic knob;
//   detection_driven_scrub  ABFT-reactive: scrub when flagged, swap once a
//                           detection streak outlives the retry budget
//                           (mirrors the serve maintain() ladder).
#pragma once

#include <cstdint>
#include <string>

namespace ftpim::fleet {

/// What a policy can ask a device to do at the end of a tick.
enum class RepairActionKind : std::uint8_t {
  kNone = 0,
  kScrub = 1,   ///< whole-die refresh; persistent faults resurface
  kRepair = 2,  ///< device swap; fresh die + fresh defect map
};

[[nodiscard]] const char* to_string(RepairActionKind action) noexcept;

/// The built-in policies (see file comment).
enum class RepairPolicyKind : std::uint8_t {
  kNeverRepair = 0,
  kCanaryGated = 1,
  kScheduledRefresh = 2,
  kDetectionDrivenScrub = 3,
};

/// Stable snake_case names ("never_repair", ...) — used by the example's
/// CLI knob, bench labels, and the checkpoint config echo.
[[nodiscard]] const char* to_string(RepairPolicyKind kind) noexcept;

/// Inverse of to_string; throws ContractViolation on an unknown name.
[[nodiscard]] RepairPolicyKind parse_repair_policy(const std::string& name);

/// All built-ins in a fixed sweep order (policy-comparison tables iterate
/// this so every artifact lists policies identically).
inline constexpr RepairPolicyKind kAllRepairPolicies[] = {
    RepairPolicyKind::kNeverRepair,
    RepairPolicyKind::kCanaryGated,
    RepairPolicyKind::kScheduledRefresh,
    RepairPolicyKind::kDetectionDrivenScrub,
};

/// Everything a device can observe about itself at the end of one tick —
/// the full policy input surface.
struct DeviceStatus {
  std::int64_t tick = 0;
  /// Probe accuracy measured THIS tick (agreement with the clean model).
  double probe_accuracy = 1.0;
  /// Sliding-window success rate over recent probe samples (1.0 while the
  /// window is empty — absence of evidence is not evidence of ill health).
  double window_score = 1.0;
  int window_size = 0;  ///< probe outcomes currently in the window
  /// ABFT flagged at least one checksum mismatch this tick (always false on
  /// float-datapath devices, which carry no checksums).
  bool abft_flagged = false;
  /// Flagged ticks in a row, including this one; a clean tick resets it.
  std::int64_t consecutive_detections = 0;
  /// Ticks since the die was last re-programmed (scrub, repair, or birth).
  std::int64_t ticks_since_heal = 0;
};

/// Shared knobs of the built-in policies. One struct (rather than one per
/// policy) so a sweep compares policies under a single declared budget.
struct RepairPolicyConfig {
  /// Capacity of each device's sliding probe-outcome window (OutcomeWindow);
  /// window_score is computed over at most this many recent samples.
  int window = 32;
  /// canary_gated: evidence gate — no swap until this many probe outcomes.
  int min_samples = 8;
  /// canary_gated: swap the device when window_score drops below this.
  double repair_below = 0.80;
  /// scheduled_refresh: re-program the die every this many ticks.
  std::int64_t refresh_every_ticks = 16;
  /// detection_driven_scrub: flagged ticks answered with a scrub before the
  /// streak escalates to a repair (mirrors HealthConfig::max_scrub_retries).
  int max_scrub_retries = 3;

  void validate() const;
};

/// Relative cost units for the policy-comparison table: one repair is worth
/// this many scrubs' worth of maintenance budget.
inline constexpr double kRepairCost = 25.0;
inline constexpr double kScrubCost = 1.0;

/// The built-in policy `kind` applied to one device's end-of-tick status.
/// Pure: same inputs -> same action. `config` must be valid
/// (RepairPolicyConfig::validate; FleetConfig::validate runs it).
[[nodiscard]] RepairActionKind decide_repair(RepairPolicyKind kind,
                                             const RepairPolicyConfig& config,
                                             const DeviceStatus& status);

}  // namespace ftpim::fleet
