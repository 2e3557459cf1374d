// Small descriptive-statistics helpers used by evaluators, benches, and the
// serving layer's latency accounting.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace ftpim {

class ByteWriter;
class ByteReader;

struct Summary {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t count = 0;
};

/// Mean/std/min/max of a sample (population std). Empty input -> zeros.
[[nodiscard]] Summary summarize(const std::vector<double>& values);

/// q-quantile (0 <= q <= 1) by nearest-rank on a sorted copy.
/// Throws std::invalid_argument on empty input or q outside [0,1].
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Fixed-capacity sliding window of boolean outcomes — the integer-exact
/// health gauge in each serve replica's health record and each fleet
/// device's record.
///
/// record() is O(1); the state (and therefore success_rate()) is a pure
/// function of the recorded sequence, so health decisions driven by it are
/// bit-reproducible across runs. An empty window reads as rate 1.0: absence
/// of evidence is not evidence of ill health.
class OutcomeWindow {
 public:
  explicit OutcomeWindow(int capacity = 64);

  /// Records one outcome, evicting the oldest once the window is full.
  void record(bool success) noexcept;

  /// Forgets everything (e.g. after a replica repair).
  void reset() noexcept;

  [[nodiscard]] int capacity() const noexcept { return static_cast<int>(ring_.size()); }
  [[nodiscard]] int size() const noexcept { return size_; }
  [[nodiscard]] int successes() const noexcept { return successes_; }
  [[nodiscard]] int failures() const noexcept { return size_ - successes_; }

  /// successes/size; 1.0 while empty.
  [[nodiscard]] double success_rate() const noexcept {
    return size_ == 0 ? 1.0 : static_cast<double>(successes_) / static_cast<double>(size_);
  }

  /// Checkpoint encoding (capacity, cursor, and the ring bytes). Round-trips
  /// exactly through decode(), including the eviction cursor, so a resumed
  /// fleet device keeps forgetting outcomes in the same order it would have.
  void encode(ByteWriter& out) const;
  /// Parses an encode()d window; throws CheckpointError(kFormat) on
  /// inconsistent framing (cursor/size outside the ring, success mismatch).
  [[nodiscard]] static OutcomeWindow decode(ByteReader& in);

 private:
  std::vector<std::uint8_t> ring_;
  int head_ = 0;  ///< next slot to overwrite
  int size_ = 0;
  int successes_ = 0;
};

/// Fixed-bin log-spaced latency histogram (nanosecond samples).
///
/// Bins are quarter-octave (4 sub-bins per power of two, ~19-25% relative
/// width) covering [1ns, 2^32 ns ≈ 4.3s); samples outside clamp to the edge
/// bins while exact min/max/sum are tracked separately. All state is integer,
/// so merge() is exactly associative and commutative — per-worker histograms
/// merged in any order yield bit-identical quantiles.
class LatencyHistogram {
 public:
  static constexpr int kOctaves = 32;
  static constexpr int kSubBins = 4;  ///< per octave
  static constexpr int kBins = kOctaves * kSubBins;

  /// Records one latency sample; ns < 1 clamps to the first bin.
  void record(std::int64_t ns) noexcept;

  /// Accumulates `other` into *this (exact, associative).
  void merge(const LatencyHistogram& other) noexcept;

  [[nodiscard]] std::int64_t count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// q-quantile estimate (bin upper edge, clamped to the observed [min,max]).
  /// Throws ContractViolation for q outside [0,1]; returns 0 when empty.
  [[nodiscard]] std::int64_t quantile_ns(double q) const;

  [[nodiscard]] std::int64_t p50_ns() const { return quantile_ns(0.50); }
  [[nodiscard]] std::int64_t p95_ns() const { return quantile_ns(0.95); }
  [[nodiscard]] std::int64_t p99_ns() const { return quantile_ns(0.99); }

  /// Exact aggregates (0 when empty).
  [[nodiscard]] double mean_ns() const noexcept;
  [[nodiscard]] std::int64_t min_ns() const noexcept { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::int64_t max_ns() const noexcept { return count_ == 0 ? 0 : max_; }

  [[nodiscard]] const std::array<std::int64_t, kBins>& bin_counts() const noexcept {
    return counts_;
  }

  /// Bin index a sample lands in / inclusive upper edge of a bin (both pure,
  /// exposed for tests).
  [[nodiscard]] static int bin_index(std::int64_t ns) noexcept;
  [[nodiscard]] static std::int64_t bin_upper_ns(int bin) noexcept;

 private:
  std::array<std::int64_t, kBins> counts_{};
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;  ///< exact ns total (int math keeps merge associative)
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

}  // namespace ftpim
