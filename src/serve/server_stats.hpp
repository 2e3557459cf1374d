// Point-in-time serving metrics snapshot.
//
// InferenceServer keeps one of these under its mutex. Request accounting
// (served, failed, latency, per-replica served) is written where the
// requests are answered; each worker's maintain() step tallies its
// MaintenanceCounters and its replica's health gauges locally and adds them
// here under one lock acquisition per batch. stats() copies the whole
// struct and adds the queue depth, so readers never hold a lock into the hot
// path. Everything here is integer-or-derived, so deterministic serving mode
// reproduces the whole snapshot bit-identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/stats.hpp"
#include "src/common/strformat.hpp"
#include "src/serve/health_monitor.hpp"

namespace ftpim::serve {

/// The counters a worker's maintain() step adds to.
struct MaintenanceCounters {
  std::int64_t canary_batches = 0;   ///< known-answer probe batches run
  std::int64_t canary_failures = 0;  ///< probe samples that missed golden
  std::int64_t quarantines = 0;      ///< healthy/suspect -> quarantined transitions
  std::int64_t repairs = 0;          ///< replicas re-cloned + re-injected
  std::int64_t aged_cells = 0;       ///< cell faults grown in service (all replicas)
  std::int64_t abft_detections = 0;     ///< batches flagged by ABFT checksums
  std::int64_t abft_flagged_tiles = 0;  ///< (layer, tile) pairs named by those batches
  std::int64_t abft_scrubs = 0;         ///< detection-triggered scrub passes
  std::int64_t abft_scrubbed_tiles = 0; ///< tiles re-programmed by scrubs
  std::int64_t abft_escalations = 0;    ///< scrub retries exhausted -> forced quarantine
  std::int64_t periodic_refreshes = 0;  ///< ScrubPolicy::kPeriodic whole-replica refreshes
  std::int64_t worker_exceptions = 0;  ///< forward passes (batch or canary) that threw

  MaintenanceCounters& operator+=(const MaintenanceCounters& o) noexcept {
    canary_batches += o.canary_batches;
    canary_failures += o.canary_failures;
    quarantines += o.quarantines;
    repairs += o.repairs;
    aged_cells += o.aged_cells;
    abft_detections += o.abft_detections;
    abft_flagged_tiles += o.abft_flagged_tiles;
    abft_scrubs += o.abft_scrubs;
    abft_scrubbed_tiles += o.abft_scrubbed_tiles;
    abft_escalations += o.abft_escalations;
    periodic_refreshes += o.periodic_refreshes;
    worker_exceptions += o.worker_exceptions;
    return *this;
  }
};

/// One replica's row: the requests it answered and the health gauges its
/// worker publishes after every batch.
struct ReplicaStats {
  std::int64_t served = 0;
  double health = 1.0;                            ///< health score in [0,1]
  ReplicaHealth state = ReplicaHealth::kHealthy;
  int repairs = 0;
  int window_size = 0;                            ///< outcomes in the health window
  /// Batches served since the last canary probe (0 when canaries are off).
  std::int64_t canary_progress = 0;

  bool operator==(const ReplicaStats&) const = default;
};

struct ServerStats : MaintenanceCounters {
  std::int64_t submitted = 0;  ///< accepted into the queue
  // Rejections by reason: the future carried a ServeError of the matching
  // kind and the request never reached a forward pass.
  std::int64_t rejected_queue_full = 0;  ///< kReject policy, queue at capacity
  std::int64_t rejected_stopped = 0;     ///< server stopped before it ran
  std::int64_t served = 0;     ///< answered with a result
  std::int64_t failed = 0;     ///< answered with an exception, all retries spent
  std::int64_t retried = 0;    ///< failed attempts re-queued onto another replica
  std::int64_t expired = 0;    ///< failed specifically with kDeadlineExceeded
  std::int64_t poisoned = 0;   ///< promises already satisfied when answered
  std::int64_t batches = 0;    ///< batched forward passes executed
  std::size_t queue_depth = 0; ///< requests waiting at snapshot time
  std::int64_t in_flight = 0;  ///< accepted but not yet answered
  std::int64_t canary_every_batches = 0;  ///< configured canary cadence (0 = off)
  std::vector<ReplicaStats> replicas;  ///< indexed by replica id
  int health_window_capacity = 0;      ///< configured window capacity
  LatencyHistogram latency;    ///< submit -> answer, per the server clock

  /// Total rejections across all reasons.
  [[nodiscard]] std::int64_t rejected() const noexcept {
    return rejected_queue_full + rejected_stopped;
  }

  /// served / batches — how well dynamic batching is filling batches.
  [[nodiscard]] double mean_batch_fill() const noexcept {
    return batches == 0 ? 0.0
                        : static_cast<double>(served) / static_cast<double>(batches);
  }

  /// One-line human-readable summary (callers print it; src/ never does).
  [[nodiscard]] std::string summary_line() const {
    return detail::format_msg(
        "served %lld/%lld (rejected %lld=full:%lld+stop:%lld, failed %lld, "
        "retried %lld, expired %lld) | batches %lld (fill %.2f) | "
        "queue %zu | p50 %.3fms p95 %.3fms p99 %.3fms",
        static_cast<long long>(served), static_cast<long long>(submitted),
        static_cast<long long>(rejected()), static_cast<long long>(rejected_queue_full),
        static_cast<long long>(rejected_stopped),
        static_cast<long long>(failed), static_cast<long long>(retried),
        static_cast<long long>(expired), static_cast<long long>(batches), mean_batch_fill(),
        queue_depth, static_cast<double>(latency.p50_ns()) * 1e-6,
        static_cast<double>(latency.p95_ns()) * 1e-6,
        static_cast<double>(latency.p99_ns()) * 1e-6);
  }

  /// One-line fleet-health summary: canary outcomes, ABFT detection/scrub
  /// counters, lifecycle counters, and each replica's
  /// "state:score win=fill/capacity can=progress/cadence" gauge. The window
  /// fill and canary progress distinguish a stuck monitor (nothing ever
  /// recorded, no canary due) from a healthy idle one.
  [[nodiscard]] std::string health_line() const {
    std::string per;
    for (std::size_t r = 0; r < replicas.size(); ++r) {
      const ReplicaStats& rep = replicas[r];
      per += detail::format_msg("%s[%zu]=%s:%.2f", r == 0 ? "" : " ", r, to_string(rep.state),
                                rep.health);
      if (health_window_capacity > 0) {
        per += detail::format_msg(" win=%d/%d", rep.window_size, health_window_capacity);
      }
      if (canary_every_batches > 0) {
        per += detail::format_msg(" can=%lld/%lld", static_cast<long long>(rep.canary_progress),
                                  static_cast<long long>(canary_every_batches));
      }
    }
    return detail::format_msg(
        "canary %lld batches (%lld misses) | abft %lld hits (%lld tiles) "
        "scrubs %lld (%lld tiles) refresh %lld esc %lld | quarantines %lld repairs %lld | "
        "aged_cells %lld | %s",
        static_cast<long long>(canary_batches), static_cast<long long>(canary_failures),
        static_cast<long long>(abft_detections), static_cast<long long>(abft_flagged_tiles),
        static_cast<long long>(abft_scrubs), static_cast<long long>(abft_scrubbed_tiles),
        static_cast<long long>(periodic_refreshes), static_cast<long long>(abft_escalations),
        static_cast<long long>(quarantines), static_cast<long long>(repairs),
        static_cast<long long>(aged_cells), per.empty() ? "no replicas" : per.c_str());
  }
};

}  // namespace ftpim::serve
