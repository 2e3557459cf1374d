// Algorithm-based fault tolerance (ABFT) for the quantized crossbar engine.
//
// Every weight tile carries checksum column(s) programmed alongside the data
// columns, in the same cell technology and hence the same fault domain. For a
// tile with data columns c = 0..C-1 the checksum encodes the per-row sum
// s_r = sum_c w[r, c]; because the crossbar MVM is linear in the columns, a
// fault-free tile satisfies, for every input vector x,
//
//   sum_c (sum_r x_r w[r, c])  ==  sum_r x_r s_r
//
// so each MVM verifies itself at the cost of reading the checksum column(s).
// A cell that drifts or sticks AFTER the checksum was programmed breaks the
// identity for almost every input, which localizes the fault to a (layer,
// tile) pair within one batch — no canary wait, no accuracy estimate.
//
// Encoding on QuantizedCrossbarEngine (derivation in DESIGN.md section 14):
// s_r can reach (L-1)*C which no single L-level cell can hold, so the
// checksum is stored as base-L digit columns d_k(r) with
// s_r = sum_k L^k d_k(r). The digit columns ride in the same packed buffer as
// the data columns and go through the same kernel, so the check is
// integer-exact under ideal readout; with a real ADC the comparison carries a
// bound derived from the per-column step sizes.
//
// Verification outcomes accumulate per tile inside the engine (lock-free on
// the hot path via per-worker scratch counts, merged behind a cold mutex) and
// are drained as a TileFaultReport by the serving layer, which scrubs the
// flagged tiles (re-program from retained weights + re-apply the live defect
// map) and escalates to quarantine when detections persist.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/annotations.hpp"
#include "src/common/thread_annotations.hpp"

namespace ftpim::abft {

struct AbftConfig {
  /// Master switch: append checksum columns at program time and verify every
  /// MVM. Off by default — the checksum column costs one extra packed panel
  /// per tile on the quantized path (see BENCH_abft.json).
  bool enabled = false;
};

/// Mismatch tally for one tile of one engine. Tiles index the engine's grid:
/// row_tile walks the input (row) direction, col_tile the output direction.
struct TileFaultCount {
  std::int64_t row_tile = 0;
  std::int64_t col_tile = 0;
  /// (sample, tile) checks on this tile whose checksum disagreed.
  std::int64_t mismatches = 0;
};

/// Per-engine detection summary drained after one or more MVM batches.
/// `layer` is filled by the deployment when fanning reports out, so the serve
/// layer can localize a detection to (layer, tile) without engine access.
struct TileFaultReport {
  std::int64_t layer = -1;
  std::int64_t checks = 0;      ///< total (sample, tile) verifications run
  std::int64_t mismatches = 0;  ///< verifications that failed
  std::vector<TileFaultCount> tiles;  ///< flagged tiles, (row, col)-sorted

  [[nodiscard]] bool clean() const noexcept { return mismatches == 0; }
  [[nodiscard]] std::int64_t flagged_tiles() const noexcept {
    return static_cast<std::int64_t>(tiles.size());
  }
};

/// Number of base-L digit columns needed to hold the largest possible row
/// checksum (L-1)*data_cols: the smallest d >= 1 with L^d > (L-1)*data_cols.
[[nodiscard]] std::int64_t checksum_digit_columns(int levels, std::int64_t data_cols);

/// Thread-safe per-engine mismatch accounting. MVM workers count mismatches
/// into per-worker scratch (no locks, no allocation) and merge once per
/// chunk; the owner drains a TileFaultReport between batches.
class AbftAccumulator {
 public:
  /// Arms the accumulator for a row_tiles x col_tiles grid (resets tallies).
  void reset(std::int64_t row_tiles, std::int64_t col_tiles);

  [[nodiscard]] bool armed() const noexcept { return row_tiles_ > 0; }

  /// Folds one worker chunk's per-tile mismatch counts (row-major grid array
  /// of row_tiles*col_tiles entries) plus its check count. Cold: called once
  /// per worker chunk, not per sample.
  FTPIM_COLD void merge(const std::int64_t* per_tile_mismatches, std::int64_t checks);

  /// Returns the accumulated report and resets tallies (grid stays armed).
  [[nodiscard]] TileFaultReport take();

 private:
  std::int64_t row_tiles_ = 0;
  std::int64_t col_tiles_ = 0;
  mutable Mutex mu_;
  std::vector<std::int64_t> counts_ FTPIM_GUARDED_BY(mu_);
  std::int64_t checks_ FTPIM_GUARDED_BY(mu_) = 0;
  std::int64_t mismatches_ FTPIM_GUARDED_BY(mu_) = 0;
};

}  // namespace ftpim::abft
