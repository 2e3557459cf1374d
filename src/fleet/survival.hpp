// Fleet-level survival analysis: per-tick aggregates, Kaplan-Meier curves,
// and the end-of-sweep policy-comparison summary.
//
// The simulator reduces each tick's DeviceTicks (in device-index order —
// exact integer/double sums in a fixed order, so aggregates are bit-identical
// at any thread count) into one TickAggregate. The timeline of aggregates is
// the sweep's whole observable output: survival curves, accuracy percentile
// bands, and maintenance accounting all derive from it, and it round-trips
// through the FLTL checkpoint chunk so a resumed sweep's artifacts are
// bit-identical to an uninterrupted run's.
//
// Survival here is the textbook right-censored setting: a device "dies" the
// first tick its probe accuracy drops below FleetConfig::accuracy_floor
// (death is permanent — no post-mortem repair), and devices still alive at
// the horizon are censored. With every device observed every tick there are
// no unknown-risk gaps, so the Kaplan-Meier product estimator reduces to the
// running alive-fraction; we keep the product form because it is the curve
// the fleet-reliability literature names.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ftpim {
class ByteWriter;
class ByteReader;
}  // namespace ftpim

namespace ftpim::fleet {

/// One tick of fleet-wide history (device-order-exact sums; see file
/// comment). Accuracy stats are over devices ALIVE ENTERING the tick — a
/// device's dying probe is its last contribution.
struct TickAggregate {
  std::int64_t tick = 0;
  std::int64_t alive = 0;   ///< devices alive entering the tick (at risk)
  std::int64_t deaths = 0;  ///< of those, how many died this tick
  double acc_mean = 0.0;    ///< probe accuracy over at-risk devices
  double acc_p10 = 0.0;     ///< percentile band (nearest-rank)
  double acc_p50 = 0.0;
  double acc_p90 = 0.0;
  std::int64_t repairs = 0;  ///< device swaps this tick
  std::int64_t scrubs = 0;   ///< whole-die refreshes this tick
  std::int64_t detections = 0;  ///< devices whose ABFT rang this tick
  std::int64_t aged_cells = 0;
  std::int64_t transient_cells = 0;

  void encode(ByteWriter& out) const;
  [[nodiscard]] static TickAggregate decode(ByteReader& in);
};

/// Kaplan-Meier survival estimate S(t) per tick: the product over ticks
/// u <= t of (1 - deaths_u / at_risk_u). One entry per timeline entry.
[[nodiscard]] std::vector<double> survival_curve(const std::vector<TickAggregate>& timeline);

/// End-of-sweep rollup (one row of the policy-comparison table).
struct FleetSummary {
  int devices = 0;
  std::int64_t ticks = 0;      ///< timeline length
  std::int64_t survivors = 0;  ///< alive at the horizon (censored)
  double survival_fraction = 0.0;  ///< final Kaplan-Meier S(t)
  /// Mean ticks-before-death, counting censored devices at the horizon — a
  /// lower bound on true mean lifetime, comparable across policies run to
  /// the same horizon.
  double mean_lifetime_ticks = 0.0;
  std::int64_t repairs = 0;
  std::int64_t scrubs = 0;
  std::int64_t detections = 0;
  /// repairs * kRepairCost + scrubs * kScrubCost (repair_policy.hpp).
  double total_cost = 0.0;
  double final_acc_p50 = 0.0;  ///< last tick's at-risk median accuracy
};

/// Reduces a timeline (plus the per-device death ticks, -1 = censored) to a
/// summary.
[[nodiscard]] FleetSummary summarize_fleet(const std::vector<TickAggregate>& timeline,
                                           const std::vector<std::int64_t>& death_ticks);

/// Unicode sparkline of a survival curve (examples render sweeps with it):
/// one glyph per sampled tick, ▁..█ scaled over [0, 1].
[[nodiscard]] std::string survival_sparkline(const std::vector<double>& curve, int width = 48);

}  // namespace ftpim::fleet
