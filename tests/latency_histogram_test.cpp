// summarize/quantile and LatencyHistogram.
#include "src/common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/rng.hpp"

namespace ftpim {
namespace {

TEST(Stats, SummarizeBasics) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(summarize({}).count, 0u);
}

TEST(Stats, QuantileNearestRank) {
  EXPECT_DOUBLE_EQ(quantile({5.0, 1.0, 3.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({5.0, 1.0, 3.0}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile({5.0, 1.0, 3.0}, 1.0), 5.0);
  EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)quantile({1.0}, 1.5), std::invalid_argument);
}

TEST(LatencyHistogram, EmptyBehavior) {
  LatencyHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.quantile_ns(0.5), 0);
  EXPECT_EQ(h.min_ns(), 0);
  EXPECT_EQ(h.max_ns(), 0);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 0.0);

  // Merging an empty histogram is a no-op in both directions.
  LatencyHistogram other;
  other.record(1000);
  LatencyHistogram copy = other;
  copy.merge(h);
  EXPECT_EQ(copy.count(), other.count());
  EXPECT_EQ(copy.quantile_ns(0.5), other.quantile_ns(0.5));
  h.merge(other);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min_ns(), 1000);
}

TEST(LatencyHistogram, QuantileRejectsBadQ) {
  LatencyHistogram h;
  h.record(10);
  EXPECT_THROW((void)h.quantile_ns(-0.1), ContractViolation);
  EXPECT_THROW((void)h.quantile_ns(1.5), ContractViolation);
}

TEST(LatencyHistogram, BinIndexMonotoneAndEdgesConsistent) {
  int prev = -1;
  for (std::int64_t ns : {std::int64_t{1}, std::int64_t{2}, std::int64_t{5}, std::int64_t{17},
                          std::int64_t{1000}, std::int64_t{123456}, std::int64_t{88'000'000},
                          std::int64_t{4'000'000'000}}) {
    const int bin = LatencyHistogram::bin_index(ns);
    EXPECT_GE(bin, prev) << "bin index must be monotone in ns (ns=" << ns << ")";
    EXPECT_LE(ns, LatencyHistogram::bin_upper_ns(bin)) << "sample above its bin edge, ns=" << ns;
    prev = bin;
  }
  // A sample never lands above the edge of the previous bin.
  for (int bin = 1; bin < LatencyHistogram::kBins; ++bin) {
    const std::int64_t below = LatencyHistogram::bin_upper_ns(bin - 1);
    EXPECT_LT(LatencyHistogram::bin_index(below), bin);
  }
}

TEST(LatencyHistogram, QuantilesLandInLogBins) {
  // Uniform 1..1000 microseconds; the quarter-octave bins guarantee <= 25%
  // relative error above the true nearest-rank value (upper-edge estimate),
  // clamped to the observed extremes.
  LatencyHistogram h;
  for (int us = 1; us <= 1000; ++us) h.record(std::int64_t{1000} * us);
  EXPECT_EQ(h.count(), 1000);
  const auto p50 = h.quantile_ns(0.50);
  const auto p95 = h.quantile_ns(0.95);
  const auto p99 = h.quantile_ns(0.99);
  EXPECT_GE(p50, 500'000);
  EXPECT_LE(p50, 625'000);
  EXPECT_GE(p95, 950'000);
  EXPECT_LE(p95, 1'000'000);
  EXPECT_GE(p99, 990'000);
  EXPECT_LE(p99, 1'000'000);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_EQ(h.quantile_ns(0.0), h.min_ns());
  EXPECT_EQ(h.quantile_ns(1.0), h.max_ns());
}

LatencyHistogram random_hist(std::uint64_t seed, int samples) {
  LatencyHistogram h;
  Rng rng(seed);
  for (int i = 0; i < samples; ++i) {
    // Log-uniform-ish spread across the full range, plus clamping outliers.
    h.record(static_cast<std::int64_t>(rng.uniform_int(std::uint64_t{1} << 40)));
  }
  return h;
}

void expect_identical(const LatencyHistogram& a, const LatencyHistogram& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.min_ns(), b.min_ns());
  EXPECT_EQ(a.max_ns(), b.max_ns());
  EXPECT_DOUBLE_EQ(a.mean_ns(), b.mean_ns());
  EXPECT_EQ(a.bin_counts(), b.bin_counts());
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(a.quantile_ns(q), b.quantile_ns(q)) << "q=" << q;
  }
}

TEST(LatencyHistogram, MergeIsAssociativeAndCommutative) {
  const LatencyHistogram a = random_hist(1, 500);
  const LatencyHistogram b = random_hist(2, 300);
  const LatencyHistogram c = random_hist(3, 700);

  LatencyHistogram ab_c = a;   // (a+b)+c
  ab_c.merge(b);
  ab_c.merge(c);
  LatencyHistogram bc = b;     // a+(b+c)
  bc.merge(c);
  LatencyHistogram a_bc = a;
  a_bc.merge(bc);
  expect_identical(ab_c, a_bc);

  LatencyHistogram ba = b;     // b+a == a+b
  ba.merge(a);
  LatencyHistogram ab = a;
  ab.merge(b);
  expect_identical(ab, ba);

  EXPECT_EQ(ab_c.count(), 1500);
}

TEST(LatencyHistogram, MergeMatchesRecordingEverythingInOne) {
  LatencyHistogram merged = random_hist(10, 400);
  merged.merge(random_hist(11, 400));
  LatencyHistogram single;
  Rng rng_a(10), rng_b(11);
  for (int i = 0; i < 400; ++i)
    single.record(static_cast<std::int64_t>(rng_a.uniform_int(std::uint64_t{1} << 40)));
  for (int i = 0; i < 400; ++i)
    single.record(static_cast<std::int64_t>(rng_b.uniform_int(std::uint64_t{1} << 40)));
  expect_identical(merged, single);
}

}  // namespace
}  // namespace ftpim
