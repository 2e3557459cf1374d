// Unit tests of the benchmark's own measurement helpers.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankOnHandBuiltSamples) {
  std::vector<double> s;
  for (int i = 1; i <= 100; ++i) s.push_back(i);
  EXPECT_EQ(quantile_sorted(s, 0.5), 50.0);
  EXPECT_EQ(quantile_sorted(s, 0.99), 99.0);
  EXPECT_EQ(quantile_sorted(s, 1.0), 100.0);
  EXPECT_EQ(quantile_sorted(s, 0.001), 1.0);
  EXPECT_EQ(quantile_sorted({7.0}, 0.5), 7.0);
  EXPECT_THROW((void)quantile_sorted({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)quantile_sorted(s, 0.0), std::invalid_argument);
}

TEST(Percentile, TenSamplesBeyondRule) {
  // p99 of 1000 samples sits at rank 990: exactly 10 samples beyond it.
  EXPECT_EQ(samples_beyond(1000, 0.99), 10);
  EXPECT_EQ(supported_tail_q(1000), 0.99);
  // 999 samples: p99 is rank 990 with only 9 beyond, so the highest
  // supported quantile is (999 - 10) / 999, rank 989.
  const std::optional<double> q = supported_tail_q(999);
  ASSERT_TRUE(q.has_value());
  EXPECT_LT(*q, 0.99);
  EXPECT_EQ(samples_beyond(999, *q), 10);
  // 20 samples: rank 10 -> the median itself has 10 beyond.
  EXPECT_EQ(samples_beyond(20, *supported_tail_q(20)), 10);
  EXPECT_FALSE(supported_tail_q(10).has_value());
  EXPECT_TRUE(supported_tail_q(11).has_value());
}

TEST(Percentile, SummarizeTailUsesTheSupportedQuantile) {
  std::vector<double> s;
  for (int i = 0; i < 50; ++i) s.push_back(50 - i);  // unsorted input
  const TailSummary t = summarize_tail(s);
  EXPECT_EQ(t.n, 50U);
  EXPECT_EQ(t.p50, 25.0);
  EXPECT_TRUE(t.tail_supported);
  EXPECT_EQ(t.tail, 40.0);  // rank 40 of 1..50, 10 beyond
  // 16 samples support only q = 6/16, below the median: report the maximum.
  std::vector<double> sixteen;
  for (int i = 1; i <= 16; ++i) sixteen.push_back(i);
  const TailSummary few = summarize_tail(sixteen);
  EXPECT_FALSE(few.tail_supported);
  EXPECT_EQ(few.tail, 16.0);
  EXPECT_EQ(few.p50, 8.0);
  const TailSummary small = summarize_tail({3.0, 1.0, 2.0});
  EXPECT_FALSE(small.tail_supported);
  EXPECT_EQ(small.tail, 3.0);
  EXPECT_EQ(summarize_tail({}).n, 0U);
}

TEST(PoissonSchedule, DeterministicForASeed) {
  const auto a = poisson_schedule(42, 1000.0, 2.0, 256);
  const auto b = poisson_schedule(42, 1000.0, 2.0, 256);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_offset_ns, b[i].due_offset_ns);
    EXPECT_EQ(a[i].input, b[i].input);
  }
  const auto c = poisson_schedule(43, 1000.0, 2.0, 256);
  EXPECT_NE(a.size() == c.size() && a.front().due_offset_ns == c.front().due_offset_ns, true);
}

TEST(PoissonSchedule, RateOrderAndInputRange) {
  const auto s = poisson_schedule(7, 2000.0, 5.0, 10);
  EXPECT_EQ(s.size(), 10000U);  // the count is fixed: rate * duration
  for (std::size_t i = 1; i < s.size(); ++i) {
    EXPECT_GE(s[i].due_offset_ns, s[i - 1].due_offset_ns);
  }
  EXPECT_LT(s.back().due_offset_ns, 5'000'000'000LL);
  for (const Arrival& a : s) EXPECT_LT(a.input, 10U);
  EXPECT_THROW((void)poisson_schedule(7, 0.0, 1.0, 10), std::invalid_argument);
}

TEST(Metrics, EveryNamedMetricRendersWithItsUnit) {
  MetricSet m;
  for (const MetricSpec& s : end_to_end_specs()) m.set(s.name, 1.5);
  const std::string json = m.to_json(end_to_end_specs());
  for (const MetricSpec& s : end_to_end_specs()) {
    EXPECT_NE(json.find("\"" + std::string(s.name) + "\": {\"value\": 1.5, \"unit\": \"" +
                        s.unit + "\"}"),
              std::string::npos)
        << s.name;
  }
  MetricSet partial;
  EXPECT_THROW((void)partial.to_json(end_to_end_specs()), std::out_of_range);
}

TEST(Metrics, NamesAreUnique) {
  std::set<std::string> names;
  for (const auto* specs : {&end_to_end_specs(), &per_layer_specs()}) {
    for (const MetricSpec& s : *specs) EXPECT_TRUE(names.insert(s.name).second) << s.name;
  }
  EXPECT_EQ(end_to_end_specs().size(), 8U);
  EXPECT_EQ(workload_specs().size(), 4U);
}

TEST(Tracer, SelfTimeSubtractsChildren) {
  Tracer t;
  const std::int64_t root = t.add("outer", 0, 10'000);
  t.add("inner", 1'000, 4'000, root);
  t.add("inner", 5'000, 7'000, root);
  double outer = -1.0, inner = -1.0;
  for (const auto& [name, us] : t.self_time_us()) {
    if (name == "outer") outer = us;
    if (name == "inner") inner = us;
  }
  EXPECT_DOUBLE_EQ(outer, 5.0);
  EXPECT_DOUBLE_EQ(inner, 5.0);
  EXPECT_EQ(t.size(), 3U);
}

TEST(Json, NumbersKeepAllDigits) {
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
  EXPECT_EQ(json_number(2.0), "2");
  EXPECT_EQ(json_string("a\"b"), "\"a\\\"b\"");
}

}  // namespace
}  // namespace perfbench
