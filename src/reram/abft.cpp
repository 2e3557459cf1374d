#include "src/reram/abft.hpp"

#include <algorithm>

#include "src/common/check.hpp"

namespace ftpim::abft {

std::int64_t checksum_digit_columns(int levels, std::int64_t data_cols) {
  FTPIM_CHECK_GE(levels, 2);
  FTPIM_CHECK_GE(data_cols, 1);
  const std::int64_t max_sum = static_cast<std::int64_t>(levels - 1) * data_cols;
  std::int64_t capacity = 1;  // exclusive: digits cover [0, capacity)
  std::int64_t digits = 0;
  while (capacity <= max_sum) {
    capacity *= levels;
    ++digits;
  }
  return digits;
}

void AbftAccumulator::reset(std::int64_t row_tiles, std::int64_t col_tiles) {
  FTPIM_CHECK_GE(row_tiles, 1);
  FTPIM_CHECK_GE(col_tiles, 1);
  row_tiles_ = row_tiles;
  col_tiles_ = col_tiles;
  MutexLock lock(mu_);
  counts_.assign(static_cast<std::size_t>(row_tiles * col_tiles), 0);
  checks_ = 0;
  mismatches_ = 0;
}

void AbftAccumulator::merge(const std::int64_t* per_tile_mismatches, std::int64_t checks) {
  MutexLock lock(mu_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += per_tile_mismatches[i];
    mismatches_ += per_tile_mismatches[i];
  }
  checks_ += checks;
}

TileFaultReport AbftAccumulator::take() {
  TileFaultReport report;
  MutexLock lock(mu_);
  report.checks = checks_;
  report.mismatches = mismatches_;
  for (std::int64_t rt = 0; rt < row_tiles_; ++rt) {
    for (std::int64_t ct = 0; ct < col_tiles_; ++ct) {
      const std::int64_t n = counts_[static_cast<std::size_t>(rt * col_tiles_ + ct)];
      if (n > 0) report.tiles.push_back({rt, ct, n});
    }
  }
  std::fill(counts_.begin(), counts_.end(), 0);
  checks_ = 0;
  mismatches_ = 0;
  return report;
}

}  // namespace ftpim::abft
