#include "src/reram/crossbar_engine.hpp"

#include "src/common/check.hpp"

#include <algorithm>

namespace ftpim {

CrossbarEngine::CrossbarEngine(const Tensor& weights, const CrossbarEngineConfig& config)
    : config_(config) {
  FTPIM_CHECK(!(weights.rank() != 2), "CrossbarEngine: [out,in] matrix required");
  FTPIM_CHECK(!(config.tile_rows <= 0 || config.tile_cols <= 1 || config.tile_cols % 2 != 0), "CrossbarEngine: tile_cols must be even and positive");
  out_ = weights.dim(0);
  in_ = weights.dim(1);
  w_max_ = tensor_w_max(weights);
  outs_per_tile_ = config.tile_cols / 2;
  row_tiles_ = (in_ + config.tile_rows - 1) / config.tile_rows;
  col_tiles_ = (out_ + outs_per_tile_ - 1) / outs_per_tile_;

  const DifferentialMapper mapper(config.range, w_max_);  // validates the range
  // Unprogrammed cells (partial tiles) rest at g_min.
  const auto cells = static_cast<std::size_t>(tile_count() * config.tile_rows * config.tile_cols);
  g_.assign(cells, config.range.g_min);
  fault_.assign(cells, 0);
  for (std::int64_t o = 0; o < out_; ++o) {
    for (std::int64_t i = 0; i < in_; ++i) {
      const CellPair pair = mapper.to_cells(weights.at(o, i));
      const std::size_t c = cell_of(o, i);
      g_[c] = pair.g_pos;
      g_[c + 1] = pair.g_neg;
    }
  }
}

std::size_t CrossbarEngine::cell_of(std::int64_t o, std::int64_t i) const noexcept {
  const std::int64_t tile = (i / config_.tile_rows) * col_tiles_ + o / outs_per_tile_;
  const std::int64_t row = i % config_.tile_rows;
  const std::int64_t col = 2 * (o % outs_per_tile_);
  return static_cast<std::size_t>((tile * config_.tile_rows + row) * config_.tile_cols + col);
}

float CrossbarEngine::effective(std::size_t cell) const noexcept {
  const std::uint8_t f = fault_[cell];
  if (f == 0) return g_[cell];
  return f == static_cast<std::uint8_t>(FaultType::kStuckOff) ? config_.range.g_min
                                                              : config_.range.g_max;
}

std::int64_t CrossbarEngine::stuck_cells() const noexcept {
  return static_cast<std::int64_t>(
      std::count_if(fault_.begin(), fault_.end(), [](std::uint8_t f) { return f != 0; }));
}

void CrossbarEngine::apply_defect_map(const DefectMap& map) {
  FTPIM_CHECK_EQ(map.cell_count(), 2 * out_ * in_,
                 "CrossbarEngine::apply_defect_map: cell count mismatch");
  for (const CellFault& f : map.faults()) {
    const std::int64_t w = f.cell_index / 2;  // flat weight index o * in + i
    fault_[cell_of(w / in_, w % in_) + static_cast<std::size_t>(f.cell_index % 2)] =
        static_cast<std::uint8_t>(f.type);
  }
}

void CrossbarEngine::clear_defects() { std::fill(fault_.begin(), fault_.end(), std::uint8_t{0}); }

Tensor CrossbarEngine::read_back() const {
  Tensor w(Shape{out_, in_});
  const float g_to_w = w_max_ / config_.range.span();
  for (std::int64_t o = 0; o < out_; ++o) {
    for (std::int64_t i = 0; i < in_; ++i) {
      const std::size_t c = cell_of(o, i);
      w.at(o, i) = (effective(c) - effective(c + 1)) * g_to_w;
    }
  }
  return w;
}

}  // namespace ftpim
