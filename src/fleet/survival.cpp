#include "src/fleet/survival.hpp"

#include <algorithm>

#include "src/common/check.hpp"
#include "src/common/checkpoint.hpp"
#include "src/fleet/repair_policy.hpp"

namespace ftpim::fleet {

void TickAggregate::encode(ByteWriter& out) const {
  out.i64(tick);
  out.i64(alive);
  out.i64(deaths);
  out.f64(acc_mean);
  out.f64(acc_p10);
  out.f64(acc_p50);
  out.f64(acc_p90);
  out.i64(repairs);
  out.i64(scrubs);
  out.i64(detections);
  out.i64(aged_cells);
  out.i64(transient_cells);
}

TickAggregate TickAggregate::decode(ByteReader& in) {
  TickAggregate agg;
  agg.tick = in.i64();
  agg.alive = in.i64();
  agg.deaths = in.i64();
  agg.acc_mean = in.f64();
  agg.acc_p10 = in.f64();
  agg.acc_p50 = in.f64();
  agg.acc_p90 = in.f64();
  agg.repairs = in.i64();
  agg.scrubs = in.i64();
  agg.detections = in.i64();
  agg.aged_cells = in.i64();
  agg.transient_cells = in.i64();
  if (agg.alive < 0 || agg.deaths < 0 || agg.deaths > agg.alive) {
    throw CheckpointError(CheckpointErrorKind::kFormat, "FLTL",
                          "tick aggregate: deaths/alive counts inconsistent");
  }
  return agg;
}

std::vector<double> survival_curve(const std::vector<TickAggregate>& timeline) {
  std::vector<double> curve;
  curve.reserve(timeline.size());
  double survival = 1.0;
  for (const TickAggregate& agg : timeline) {
    if (agg.alive > 0) {
      survival *= 1.0 - static_cast<double>(agg.deaths) / static_cast<double>(agg.alive);
    }
    // alive == 0: nobody at risk, the estimate carries flat (S stays 0 once
    // the whole fleet is gone).
    curve.push_back(survival);
  }
  return curve;
}

FleetSummary summarize_fleet(const std::vector<TickAggregate>& timeline,
                             const std::vector<std::int64_t>& death_ticks) {
  FleetSummary summary;
  summary.devices = static_cast<int>(death_ticks.size());
  summary.ticks = static_cast<std::int64_t>(timeline.size());

  const std::int64_t horizon = summary.ticks;
  std::int64_t lifetime_sum = 0;
  for (std::int64_t death : death_ticks) {
    if (death < 0) {
      ++summary.survivors;
      lifetime_sum += horizon;  // censored: survived the whole observation
    } else {
      lifetime_sum += death;  // lived ticks [0, death)
    }
  }
  summary.mean_lifetime_ticks =
      summary.devices == 0 ? 0.0
                           : static_cast<double>(lifetime_sum) / static_cast<double>(summary.devices);

  const std::vector<double> curve = survival_curve(timeline);
  summary.survival_fraction = curve.empty() ? 1.0 : curve.back();
  for (const TickAggregate& agg : timeline) {
    summary.repairs += agg.repairs;
    summary.scrubs += agg.scrubs;
    summary.detections += agg.detections;
  }
  summary.total_cost = static_cast<double>(summary.repairs) * kRepairCost +
                       static_cast<double>(summary.scrubs) * kScrubCost;
  if (!timeline.empty()) summary.final_acc_p50 = timeline.back().acc_p50;
  return summary;
}

std::string survival_sparkline(const std::vector<double>& curve, int width) {
  FTPIM_CHECK(width >= 1, "survival_sparkline: width %d must be >= 1", width);
  static const char* kGlyphs[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (curve.empty()) return "";
  const int cols = std::min<int>(width, static_cast<int>(curve.size()));
  std::string out;
  for (int c = 0; c < cols; ++c) {
    // Sample the curve at evenly spaced ticks (last column = last tick).
    const std::size_t at =
        cols == 1 ? curve.size() - 1
                  : static_cast<std::size_t>(c) * (curve.size() - 1) / (static_cast<std::size_t>(cols) - 1);
    const double v = std::clamp(curve[at], 0.0, 1.0);
    const int level = std::min(7, static_cast<int>(v * 8.0));
    out += kGlyphs[level];
  }
  return out;
}

}  // namespace ftpim::fleet
