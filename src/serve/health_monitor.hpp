// Per-replica health scoring for the self-healing fleet.
//
// Each replica carries a sliding OutcomeWindow of recent outcomes: batch
// forward results and known-answer canary samples (see InferenceServer's
// maintenance path, which compares canary logits against golden outputs from
// the pristine source model). The window's success rate is the replica's
// health score; thresholds map the score to a three-state machine
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
// Thread safety: fully synchronized on an internal mutex. Workers record
// outcomes for their own replica but read snapshots of every replica's
// state, and the stats path reads all of them at once.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/stats.hpp"
#include "src/common/thread_annotations.hpp"

namespace ftpim::serve {

enum class ReplicaHealth : std::uint8_t {
  kHealthy = 0,
  kSuspect = 1,
  kQuarantined = 2,
};

[[nodiscard]] const char* to_string(ReplicaHealth state) noexcept;

/// When replicas get re-programmed in service.
enum class ScrubPolicy : std::uint8_t {
  /// Scrub only the tiles ABFT flags, when it flags them (the PR 9 path;
  /// requires a quantized deployment with abft.enabled to do anything).
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
  /// path.
  int max_scrub_retries = 3;
  /// Each ABFT-detected batch also records one failure outcome into the
  /// replica's window (the server records it), so detections depress the
  /// health score like any other failure signal.
  bool detection_fails_window = true;
  /// Scrub scheduling (see ScrubPolicy). kPeriodic requires a cadence.
  ScrubPolicy scrub_policy = ScrubPolicy::kDetectionDriven;
  /// kPeriodic only: served batches between whole-replica refreshes (> 0).
  std::int64_t scrub_every_batches = 0;

  void validate() const;
};

class HealthMonitor {
 public:
  HealthMonitor(int num_replicas, const HealthConfig& config);

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Records `count` identical outcomes for one replica (a batch of N
  /// requests that all succeeded or all failed records N at once).
  void record(int replica_id, bool success, int count = 1);

  /// Health score in [0,1]: the window's success rate (1.0 while empty).
  [[nodiscard]] double score(int replica_id) const;

  /// Threshold mapping of score(); healthy until min_samples outcomes exist.
  [[nodiscard]] ReplicaHealth state(int replica_id) const;

  /// Clears the replica's window after a repair — the new device starts with
  /// a clean record — and bumps its repair count (also lifts a forced
  /// quarantine).
  void mark_repaired(int replica_id);

  /// Pins the replica to kQuarantined regardless of its window score — the
  /// escalation path when scrub retries are exhausted. Sticky until
  /// mark_repaired.
  void force_quarantine(int replica_id);

  struct Snapshot {
    double score = 1.0;
    ReplicaHealth state = ReplicaHealth::kHealthy;
    int repairs = 0;
    int window_size = 0;      ///< outcomes currently in the window
    int window_capacity = 0;  ///< the window's configured capacity
    bool forced = false;      ///< quarantine pinned by force_quarantine
  };
  /// Consistent point-in-time view of every replica (one lock acquisition).
  [[nodiscard]] std::vector<Snapshot> snapshot() const;

  [[nodiscard]] int num_replicas() const noexcept {
    return static_cast<int>(replicas_.size());
  }
  [[nodiscard]] const HealthConfig& config() const noexcept { return config_; }

 private:
  struct ReplicaRecord {
    OutcomeWindow window;
    int repairs = 0;
    bool forced_quarantine = false;
    explicit ReplicaRecord(int capacity) : window(capacity) {}
  };

  [[nodiscard]] ReplicaHealth state_locked(const ReplicaRecord& r) const FTPIM_REQUIRES(mu_);
  [[nodiscard]] const ReplicaRecord& at(int replica_id) const FTPIM_REQUIRES(mu_);
  [[nodiscard]] ReplicaRecord& at(int replica_id) FTPIM_REQUIRES(mu_);

  const HealthConfig config_;
  mutable Mutex mu_;
  std::vector<ReplicaRecord> replicas_ FTPIM_GUARDED_BY(mu_);
};

}  // namespace ftpim::serve
