// Per-replica health for the self-healing fleet: the configuration, the
// record each serve worker keeps for its replica, and the one rule that maps
// a record to a state.
//
// A replica's record carries a sliding OutcomeWindow of recent outcomes:
// batch forward results, known-answer canary samples (compared against
// golden outputs from the pristine source model) and ABFT detections. The
// window's success rate is the replica's health score; health_state() maps
// the record to a three-state machine
//
//   healthy  --score < suspect_below-->  suspect
//   suspect  --score < quarantine_below-->  quarantined
//   quarantined  --repair (re-clone + fresh map), mark_repaired-->  healthy
//
// with a min_samples evidence gate so a single early failure cannot
// quarantine a fresh replica. All state is integer counts over a recorded
// sequence, so the decisions — and everything downstream of them, repairs
// included — are bit-reproducible in deterministic serving mode.
//
// Thread safety: none needed. Only the replica's worker reads or writes its
// record; InferenceServer publishes the record's gauges into ServerStats
// under the server's mutex once per batch.
#pragma once

#include <cstdint>

#include "src/common/stats.hpp"

namespace ftpim::serve {

enum class ReplicaHealth : std::uint8_t {
  kHealthy = 0,
  kSuspect = 1,
  kQuarantined = 2,
};

[[nodiscard]] const char* to_string(ReplicaHealth state) noexcept;

/// When replicas get re-programmed in service.
enum class ScrubPolicy : std::uint8_t {
  /// Scrub only the tiles ABFT flags, when it flags them (requires a
  /// quantized deployment with abft.enabled to do anything).
  kDetectionDriven = 0,
  /// Additionally refresh the whole replica every scrub_every_batches served
  /// batches (ReplicaPool::refresh): re-program from retained state and
  /// re-apply the persistent map, healing transient damage on a schedule —
  /// before, or without, any detector ringing. Works on both datapaths; the
  /// detection-driven tile scrubs stay active alongside it.
  kPeriodic = 1,
};

[[nodiscard]] const char* to_string(ScrubPolicy policy) noexcept;

struct HealthConfig {
  int window = 64;                 ///< outcomes remembered per replica
  int min_samples = 8;             ///< evidence gate: healthy until this many outcomes
  double suspect_below = 0.95;     ///< score below this -> suspect
  double quarantine_below = 0.70;  ///< score below this -> quarantined
  /// Canary cadence: every this many served batches a worker runs the
  /// known-answer probe set through its replica (0 = canaries off).
  std::int64_t canary_every_batches = 0;
  int canary_samples = 4;          ///< probe inputs per canary batch
  /// Quarantined replicas are repaired in place (re-cloned from the pristine
  /// source with a fresh defect map) by their worker.
  bool repair_on_quarantine = true;
  /// ABFT detection handling (quantized deployments with abft.enabled only):
  /// consecutive detected batches answered with an in-place scrub of the
  /// flagged tiles before the replica is force-quarantined (0 = escalate on
  /// the first detection). A transient fault heals on the first scrub; a
  /// persistent one survives every retry and escalates to the full repair
  /// path. Every detected batch also records one failure outcome, so
  /// detections depress the health score like any other failure signal.
  int max_scrub_retries = 3;
  /// Scrub scheduling (see ScrubPolicy). kPeriodic requires a cadence.
  ScrubPolicy scrub_policy = ScrubPolicy::kDetectionDriven;
  /// kPeriodic only: served batches between whole-replica refreshes (> 0).
  std::int64_t scrub_every_batches = 0;

  void validate() const;
};

/// One replica's health record, owned by the replica's worker.
struct ReplicaRecord {
  explicit ReplicaRecord(int window_capacity) : window(window_capacity) {}

  OutcomeWindow window;  ///< batch, canary and detection outcomes
  /// Forced quarantine: scrub retries ran out, so the replica is quarantined
  /// whatever its score. Held until mark_repaired().
  bool pinned = false;
  int repairs = 0;
  std::int64_t batches_since_repair = 0;  ///< the aging clock
  std::int64_t batches_since_canary = 0;
  std::int64_t batches_since_scrub = 0;   ///< ScrubPolicy::kPeriodic countdown
  /// ABFT-flagged batches in a row; a clean batch resets it, exceeding
  /// max_scrub_retries pins the quarantine.
  std::int64_t consecutive_detections = 0;
  ReplicaHealth last_state = ReplicaHealth::kHealthy;

  /// The replica was replaced by a fresh die: forget the window, the pin,
  /// the clock, the countdowns and the streak, and count one repair.
  void mark_repaired() noexcept;
};

/// The health rule: pinned -> quarantined; fewer than min_samples outcomes
/// -> healthy; otherwise the score against quarantine_below, then
/// suspect_below.
[[nodiscard]] ReplicaHealth health_state(const ReplicaRecord& record,
                                         const HealthConfig& config) noexcept;

}  // namespace ftpim::serve
