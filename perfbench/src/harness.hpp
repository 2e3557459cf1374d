// Shared measurement pieces of perfbench: clock, exact order
// statistics, the seeded Poisson arrival schedule, the in-memory span tracer,
// the metric table, and the host fingerprint. Everything here is benchmark
// code; the ftpim library is only ever called through its public headers.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock), the one time base for
/// every number the benchmark reports.
[[nodiscard]] std::int64_t now_ns();

/// Global operator new calls counted so far in this process (all threads),
/// while armed. Defined in alloc_hook.cpp, which replaces operator new in the
/// benchmark binaries; disarmed, it only reads the flag.
void arm_allocation_count(bool armed);
[[nodiscard]] std::uint64_t allocation_count();

/// Peak resident set size of this process so far, in MiB (getrusage).
[[nodiscard]] double peak_rss_mib();

// --- exact order statistics -------------------------------------------------

/// Nearest-rank quantile of an ascending sample: the value at rank
/// ceil(q * n) (1-based), q in (0, 1]. Requires a non-empty sample.
[[nodiscard]] double quantile_sorted(const std::vector<double>& sorted, double q);

/// Samples strictly above the nearest-rank q-quantile: n - ceil(q * n).
[[nodiscard]] std::int64_t samples_beyond(std::size_t n, double q);

/// The tail quantile a sample of n supports: the largest q <= q_cap with at
/// least `min_beyond` samples beyond its rank. nullopt when n <= min_beyond.
[[nodiscard]] std::optional<double> supported_tail_q(std::size_t n, double q_cap = 0.99,
                                                     std::int64_t min_beyond = 10);

/// Median and supported tail of a latency-like sample.
struct TailSummary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.0;   ///< the quantile `tail` reports (0.99 when n >= 1000)
  double tail = 0.0;     ///< value at tail_q; the sample maximum when no
                         ///< quantile above the median has 10 samples beyond
  bool tail_supported = false;
};
/// Sorts a copy of `values`. An empty sample yields all zeros.
[[nodiscard]] TailSummary summarize_tail(std::vector<double> values, double q_cap = 0.99);

/// Median of an unsorted sample (upper median for even n). Empty -> 0.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank q-quantile of an unsorted sample. Empty -> 0.
[[nodiscard]] double quantile_of(std::vector<double> values, double q);

/// `values` (in arrival order) cut into consecutive chunks of `chunk`
/// samples; returns each full chunk's nearest-rank q-quantile. A leftover
/// partial chunk is dropped. For q = 0.99 a chunk of 1000 keeps exactly 10
/// samples beyond the quantile.
[[nodiscard]] std::vector<double> chunk_quantiles(const std::vector<double>& values,
                                                  std::size_t chunk, double q);

// --- open-loop arrivals -----------------------------------------------------

struct Arrival {
  std::int64_t due_offset_ns = 0;  ///< since the start of the open-loop phase
  std::uint32_t input = 0;         ///< index into the workload's input set
};

/// Seeded Poisson arrivals at `rate_per_s` over `duration_s`, conditioned on
/// their count: exactly round(rate * duration) requests at sorted uniform
/// times, each with a uniformly drawn input, all from one stream of
/// derive_seed(seed, stream). Same arguments, same schedule; the fixed count
/// keeps failed_frac's denominator the same for every seed.
[[nodiscard]] std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                                    double duration_s, std::uint32_t num_inputs);

// --- tracing ----------------------------------------------------------------

/// One timed call into a layer, recorded from outside the library.
struct Span {
  const char* name = "";     ///< static string, e.g. "fleet.step"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 = root
  std::int64_t request = -1; ///< request/die/tick id the span belongs to
};

/// Spans kept in memory and written out once, at the end of the run.
/// Thread-safe: add() takes a mutex (traced runs only).
class Tracer {
 public:
  std::int64_t add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                   std::int64_t parent = -1, std::int64_t request = -1);
  /// Sets the end of a span opened with end == start (a parent whose
  /// children were recorded first).
  void set_end(std::int64_t index, std::int64_t end_ns);
  [[nodiscard]] std::size_t size() const;
  /// Self time per span name: duration minus the part covered by children.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_time_us() const;
  /// One JSON object per line: {"name","start_ns","end_ns","parent","request"}.
  void write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// --- metrics ----------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run prints (BENCHMARK.json order).
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_specs();
/// The per-layer metrics every traced run prints.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_specs();

/// Name -> value; units come from the spec tables above.
class MetricSet {
 public:
  void set(const std::string& name, double value);
  [[nodiscard]] double get(const std::string& name) const;
  /// Renders {"name": {"value": v, "unit": u}, ...} for exactly `specs`;
  /// throws if one of them was never set.
  [[nodiscard]] std::string to_json(const std::vector<MetricSpec>& specs) const;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// Shortest round-trip rendering of a double ("%.17g"; non-finite -> null).
[[nodiscard]] std::string json_number(double value);
[[nodiscard]] std::string json_string(const std::string& value);

/// Host fingerprint stamped on every result: cores, kernel dispatch level,
/// VNNI presence, resolved num_threads(), compiler, build type, source id.
[[nodiscard]] std::string host_fingerprint_json(const std::string& source_id);

}  // namespace perfbench
