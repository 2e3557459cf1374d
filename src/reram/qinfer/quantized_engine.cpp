#include "src/reram/qinfer/quantized_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "src/common/annotations.hpp"
#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/reram/quantizer.hpp"
#include "src/tensor/kernels/dispatch.hpp"
#include "src/tensor/kernels/pack_arena.hpp"
#include "src/tensor/kernels/qgemm.hpp"

namespace ftpim::qinfer {

void QuantizedEngineConfig::validate() const {
  FTPIM_CHECK(tile_rows > 0 && tile_rows % 2 == 0,
              "QuantizedEngineConfig: tile_rows must be even and positive");
  // Keeps the worst-case int32 column sum (127 * 255 * tile_rows) and the
  // ADC reconstruction bound inside int32 — see qgemm.hpp and adc.hpp.
  FTPIM_CHECK(tile_rows <= 65536, "QuantizedEngineConfig: tile_rows must be <= 65536");
  FTPIM_CHECK(tile_cols > 1 && tile_cols % 2 == 0,
              "QuantizedEngineConfig: tile_cols must be even and positive");
  FTPIM_CHECK(levels >= 2 && levels <= 256,
              "QuantizedEngineConfig: levels must be in [2, 256] (uint8 level storage)");
  range.validate();
  adc.validate();
  if (abft.enabled) {
    // The checksum readout sum_k L^k * A*_k must stay inside int64: the
    // largest digit-column accumulator is 127 * 255 * tile_rows and the digit
    // weights sum to less than L^(digits+1) / (L - 1) <= 2 * L * (L-1) * tile_cols.
    const double weight_sum =
        2.0 * levels * (levels - 1) * static_cast<double>(tile_cols);
    const double worst = weight_sum * 127.0 * 255.0 * static_cast<double>(tile_rows);
    FTPIM_CHECK(worst < 4.0e18,
                "QuantizedEngineConfig: tile too large for an int64-exact ABFT checksum");
  }
}

QuantizedCrossbarEngine::QuantizedCrossbarEngine(const Tensor& weights,
                                                 const QuantizedEngineConfig& config)
    : config_(config) {
  FTPIM_CHECK(!(weights.rank() != 2), "QuantizedCrossbarEngine: [out,in] matrix required");
  config_.validate();
  out_ = weights.dim(0);
  in_ = weights.dim(1);
  w_max_ = tensor_w_max(weights);
  outs_per_tile_ = config_.tile_cols / 2;
  row_tiles_ = (in_ + config_.tile_rows - 1) / config_.tile_rows;
  col_tiles_ = (out_ + outs_per_tile_ - 1) / outs_per_tile_;
  check_cols_ =
      config_.abft.enabled ? abft::checksum_digit_columns(config_.levels, config_.tile_cols) : 0;
  // With ABFT on the packed width is rounded up to a multiple of 16, so the
  // digit columns sit in whole kernel panels. The pad columns are DEAD ZERO
  // cells — padding with extra digit columns instead would add an L^k *
  // delta term per column to the ADC tolerance and destroy detection
  // sensitivity. The kernel is never asked for columns past tile_cols +
  // check_cols_ (e.g. 128 + 3).
  packed_cols_ = config_.tile_cols + check_cols_;
  if (check_cols_ > 0) packed_cols_ = (packed_cols_ + 15) & ~std::int64_t{15};

  const auto cells = static_cast<std::size_t>(config_.tile_rows * config_.tile_cols);
  tiles_.resize(static_cast<std::size_t>(row_tiles_ * col_tiles_));
  for (Tile& t : tiles_) {
    t.level.assign(cells, 0);  // unprogrammed cells rest at level 0 (g_min)
    t.fault.assign(cells, 0);
    t.packed.resize(kernels::packed_levels_bytes(config_.tile_rows, packed_cols_));
    if (!config_.adc.ideal()) t.delta.assign(static_cast<std::size_t>(packed_cols_), 1);
    if (check_cols_ > 0) {
      t.check_level.assign(static_cast<std::size_t>(config_.tile_rows * check_cols_), 0);
      t.check_fault.assign(static_cast<std::size_t>(config_.tile_rows * check_cols_), 0);
    }
  }
  if (check_cols_ > 0) abft_.reset(row_tiles_, col_tiles_);

  // Program: weight -> differential conductance pair -> nearest level index.
  // level_index(to_cells(w)) is exactly the level the weight-space injector
  // snaps to at quant_levels == levels, so both hold the same discretized
  // device state.
  const DifferentialMapper mapper(config_.range, w_max_);
  const ConductanceQuantizer quantizer(config_.range, config_.levels);
  for (std::int64_t o = 0; o < out_; ++o) {
    const std::int64_t ct = o / outs_per_tile_;
    const std::int64_t local_o = o % outs_per_tile_;
    for (std::int64_t i = 0; i < in_; ++i) {
      const std::int64_t rt = i / config_.tile_rows;
      const std::int64_t local_r = i % config_.tile_rows;
      const CellPair pair = mapper.to_cells(weights.at(o, i));
      Tile& t = tile(rt, ct);
      const std::size_t base = static_cast<std::size_t>(local_r * config_.tile_cols + 2 * local_o);
      t.level[base] = static_cast<std::uint8_t>(quantizer.level_index(pair.g_pos));
      t.level[base + 1] = static_cast<std::uint8_t>(quantizer.level_index(pair.g_neg));
    }
  }
  for (std::int64_t rt = 0; rt < row_tiles_; ++rt) {
    for (std::int64_t ct = 0; ct < col_tiles_; ++ct) {
      // With ABFT the initial baseline is the clean programming (no faults
      // yet, so rebaseline == encode the programmed levels).
      if (check_cols_ > 0) {
        rebaseline_tile(tile(rt, ct), valid_rows_of(rt));
      } else {
        repack_tile(tile(rt, ct), valid_rows_of(rt));
      }
    }
  }
}

std::int64_t QuantizedCrossbarEngine::valid_rows_of(std::int64_t rt) const noexcept {
  return std::min(config_.tile_rows, in_ - rt * config_.tile_rows);
}

std::uint8_t QuantizedCrossbarEngine::effective_level(const Tile& t,
                                                      std::size_t cell) const noexcept {
  const std::uint8_t f = t.fault[cell];
  if (f == 0) return t.level[cell];
  return f == static_cast<std::uint8_t>(FaultType::kStuckOff)
             ? std::uint8_t{0}
             : static_cast<std::uint8_t>(config_.levels - 1);
}

std::uint8_t QuantizedCrossbarEngine::effective_check_level(const Tile& t, std::int64_t r,
                                                            std::int64_t k) const noexcept {
  const auto cell = static_cast<std::size_t>(r * check_cols_ + k);
  const std::uint8_t f = t.check_fault[cell];
  if (f == 0) return t.check_level[cell];
  return f == static_cast<std::uint8_t>(FaultType::kStuckOff)
             ? std::uint8_t{0}
             : static_cast<std::uint8_t>(config_.levels - 1);
}

FTPIM_COLD void QuantizedCrossbarEngine::repack_tile(Tile& t, std::int64_t valid_rows) {
  const std::int64_t rows = config_.tile_rows;
  const std::int64_t cols = config_.tile_cols;
  const std::int64_t pc = packed_cols_;
  // Checksum digit columns ride in the same packed buffer as the data
  // columns (columns cols .. cols + check_cols_ - 1) and go through the same
  // kernel call, so they see the identical accumulation path; any columns
  // past that are dead zero padding for kernel width alignment. pc == cols
  // when ABFT is off and this packs byte-for-byte what it always did.
  std::vector<std::uint8_t> eff(static_cast<std::size_t>(rows * pc));
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      eff[static_cast<std::size_t>(r * pc + c)] =
          effective_level(t, static_cast<std::size_t>(r * cols + c));
    }
    for (std::int64_t k = 0; k < check_cols_; ++k) {
      eff[static_cast<std::size_t>(r * pc + cols + k)] = effective_check_level(t, r, k);
    }
  }
  // Pack with k == valid_rows, not tile_rows: the packed panel stride is a
  // function of k (ceil(k/2) pairs per panel), and the MVM drives the kernel
  // with k == valid_rows. Packing the full tile would shift every column
  // panel after the first whenever the tile is partially filled.
  kernels::pack_levels(eff.data(), valid_rows, pc, pc, t.packed.data());
  if (check_cols_ > 0) {
    // Verification bound: data columns at or past nz_cols hold level 0 in
    // every driven row, so their kernel output is identically zero and the
    // readout can skip them without changing dsum or the clip veto. Edge
    // tiles whose outputs map only a few columns verify in O(used), not
    // O(tile_cols). Recomputed on every repack, so late faults that raise a
    // dead column are re-covered.
    std::int64_t nz = 0;
    for (std::int64_t r = 0; r < valid_rows; ++r) {
      for (std::int64_t c = cols - 1; c >= nz; --c) {
        if (eff[static_cast<std::size_t>(r * pc + c)] != 0) {
          nz = c + 1;
          break;
        }
      }
    }
    t.nz_cols = nz;
  }
  if (config_.adc.ideal()) {
    t.tol2 = 0;  // digitization is exact, so the checksum identity is too
    return;
  }
  // Worst-case column sum over the DRIVEN rows only — rows past valid_rows
  // carry zero wordline drive (k = valid in the MVM), so they contribute
  // neither signal nor full-scale.
  for (std::int64_t c = 0; c < pc; ++c) {
    std::int64_t bound = 0;
    for (std::int64_t r = 0; r < valid_rows; ++r) {
      bound += eff[static_cast<std::size_t>(r * pc + c)];
    }
    t.delta[static_cast<std::size_t>(c)] = adc_column_delta(config_.adc, 127 * bound);
  }
  // 2x tolerance of the digitized checksum comparison: round-half-away error
  // is at most delta/2 per column, so 2 * |sum_c A~_c - sum_k L^k A~*_k| <=
  // sum_c delta_c + sum_k L^k delta*_k for a fault-free tile (clipping
  // excluded — see DESIGN.md section 14).
  std::int64_t tol2 = 0;
  for (std::int64_t c = 0; c < cols; ++c) tol2 += t.delta[static_cast<std::size_t>(c)];
  std::int64_t chk_tol = 0;
  for (std::int64_t k = check_cols_ - 1; k >= 0; --k) {
    chk_tol = chk_tol * config_.levels + t.delta[static_cast<std::size_t>(cols + k)];
  }
  t.tol2 = tol2 + chk_tol;
  if (check_cols_ > 0) {
    // Saturation thresholds for the verification veto: |reconstructed| ==
    // qmax * delta means the column clipped, and the bound above no longer
    // holds for that sample.
    const std::int64_t qmax = config_.adc.qmax();
    t.sat.resize(static_cast<std::size_t>(pc));
    for (std::int64_t c = 0; c < pc; ++c) {
      t.sat[static_cast<std::size_t>(c)] = qmax * t.delta[static_cast<std::size_t>(c)];
    }
  }
}

FTPIM_COLD void QuantizedCrossbarEngine::rebaseline_tile(Tile& t, std::int64_t valid_rows) {
  const std::int64_t rows = config_.tile_rows;
  const std::int64_t cols = config_.tile_cols;
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int64_t s = 0;
    for (std::int64_t c = 0; c < cols; ++c) {
      s += effective_level(t, static_cast<std::size_t>(r * cols + c));
    }
    for (std::int64_t k = 0; k < check_cols_; ++k) {
      t.check_level[static_cast<std::size_t>(r * check_cols_ + k)] =
          static_cast<std::uint8_t>(s % config_.levels);
      s /= config_.levels;
    }
    // check_cols_ was sized for the maximal row sum, so the digits always fit.
    FTPIM_DCHECK_EQ(s, 0);
  }
  // A stuck checksum cell makes the check column itself unreliable: silence
  // verification for this tile (canaries still cover it) rather than alarm
  // forever on a fault no scrub can reach. Only driven rows matter.
  t.check_ok = 1;
  for (std::int64_t r = 0; r < valid_rows && t.check_ok != 0; ++r) {
    for (std::int64_t k = 0; k < check_cols_; ++k) {
      if (t.check_fault[static_cast<std::size_t>(r * check_cols_ + k)] != 0) {
        t.check_ok = 0;
        break;
      }
    }
  }
  repack_tile(t, valid_rows);
}

bool QuantizedCrossbarEngine::abft_tile_active(std::int64_t rt, std::int64_t ct) const {
  FTPIM_CHECK(rt >= 0 && rt < row_tiles_ && ct >= 0 && ct < col_tiles_,
              "QuantizedCrossbarEngine::abft_tile_active: tile index out of range");
  return check_cols_ > 0 && tile(rt, ct).check_ok != 0;
}

void QuantizedCrossbarEngine::abft_rebaseline() {
  FTPIM_CHECK(check_cols_ > 0, "QuantizedCrossbarEngine::abft_rebaseline: ABFT is disabled");
  for (std::int64_t rt = 0; rt < row_tiles_; ++rt) {
    for (std::int64_t ct = 0; ct < col_tiles_; ++ct) {
      rebaseline_tile(tile(rt, ct), valid_rows_of(rt));
    }
  }
}

void QuantizedCrossbarEngine::scrub_tile(std::int64_t rt, std::int64_t ct) {
  FTPIM_CHECK(rt >= 0 && rt < row_tiles_ && ct >= 0 && ct < col_tiles_,
              "QuantizedCrossbarEngine::scrub_tile: tile index out of range");
  Tile& t = tile(rt, ct);
  // The programmed levels (and the checksum digits of the last baseline) are
  // retained state, so "re-program from source" is exactly a tile-local
  // fault clear + repack. The caller re-applies its persistent DefectMap so
  // aging-grown faults resurface and keep the detection alive.
  std::fill(t.fault.begin(), t.fault.end(), std::uint8_t{0});
  std::fill(t.check_fault.begin(), t.check_fault.end(), std::uint8_t{0});
  repack_tile(t, valid_rows_of(rt));
}

std::int64_t QuantizedCrossbarEngine::scrub(const abft::TileFaultReport& report) {
  std::int64_t scrubbed = 0;
  for (const abft::TileFaultCount& f : report.tiles) {
    scrub_tile(f.row_tile, f.col_tile);
    ++scrubbed;
  }
  return scrubbed;
}

abft::TileFaultReport QuantizedCrossbarEngine::take_abft_report() {
  FTPIM_CHECK(check_cols_ > 0, "QuantizedCrossbarEngine::take_abft_report: ABFT is disabled");
  return abft_.take();
}

std::int64_t QuantizedCrossbarEngine::total_cells() const noexcept {
  return static_cast<std::int64_t>(tiles_.size()) * config_.tile_rows * config_.tile_cols;
}

std::int64_t QuantizedCrossbarEngine::stuck_cells() const noexcept {
  std::int64_t n = 0;
  for (const Tile& t : tiles_) {
    for (const std::uint8_t f : t.fault) n += (f != 0);
  }
  return n;
}

void QuantizedCrossbarEngine::apply_device_defects(const StuckAtFaultModel& model,
                                                   std::uint64_t master_seed,
                                                   std::uint64_t device_index) {
  // One sample per tile in row-major tile order from the derived device
  // seed. Checksum cells draw from a SEPARATE derived stream (distinct salt)
  // so enabling ABFT leaves the data-cell fault pattern of a given die
  // byte-identical.
  Rng rng(derive_seed(master_seed, device_index + 0xcba));
  Rng rng_chk(derive_seed(master_seed, device_index + 0xabf7));
  for (std::int64_t rt = 0; rt < row_tiles_; ++rt) {
    for (std::int64_t ct = 0; ct < col_tiles_; ++ct) {
      Tile& t = tile(rt, ct);
      const DefectMap map =
          DefectMap::sample(config_.tile_rows * config_.tile_cols, model, rng);
      for (const CellFault& f : map.faults()) {
        t.fault[static_cast<std::size_t>(f.cell_index)] = static_cast<std::uint8_t>(f.type);
      }
      if (check_cols_ > 0) {
        const DefectMap chk_map =
            DefectMap::sample(config_.tile_rows * check_cols_, model, rng_chk);
        for (const CellFault& f : chk_map.faults()) {
          t.check_fault[static_cast<std::size_t>(f.cell_index)] =
              static_cast<std::uint8_t>(f.type);
        }
      }
      repack_tile(t, valid_rows_of(rt));
    }
  }
}

void QuantizedCrossbarEngine::apply_defect_map(const DefectMap& map) {
  FTPIM_CHECK(map.cell_count() == 2 * out_ * in_,
              "QuantizedCrossbarEngine::apply_defect_map: cell count mismatch");
  std::vector<std::uint8_t> dirty(tiles_.size(), 0);
  for (const CellFault& f : map.faults()) {
    const std::int64_t w = f.cell_index / 2;  // flat weight index o * in + i
    const std::int64_t pol = f.cell_index % 2;
    const std::int64_t o = w / in_;
    const std::int64_t i = w % in_;
    const std::int64_t rt = i / config_.tile_rows;
    const std::int64_t ct = o / outs_per_tile_;
    const std::int64_t local_r = i % config_.tile_rows;
    const std::int64_t local_c = 2 * (o % outs_per_tile_) + pol;
    Tile& t = tile(rt, ct);
    t.fault[static_cast<std::size_t>(local_r * config_.tile_cols + local_c)] =
        static_cast<std::uint8_t>(f.type);
    dirty[static_cast<std::size_t>(rt * col_tiles_ + ct)] = 1;
  }
  for (std::int64_t rt = 0; rt < row_tiles_; ++rt) {
    for (std::int64_t ct = 0; ct < col_tiles_; ++ct) {
      if (dirty[static_cast<std::size_t>(rt * col_tiles_ + ct)] != 0) {
        repack_tile(tile(rt, ct), valid_rows_of(rt));
      }
    }
  }
}

DefectMap QuantizedCrossbarEngine::defect_map() const {
  // Inverse of apply_defect_map; walking (o, i, polarity) in order yields
  // the sorted model-cell indices from_faults requires.
  std::vector<CellFault> faults;
  for (std::int64_t o = 0; o < out_; ++o) {
    for (std::int64_t i = 0; i < in_; ++i) {
      const Tile& t = tile(i / config_.tile_rows, o / outs_per_tile_);
      const std::int64_t cell =
          (i % config_.tile_rows) * config_.tile_cols + 2 * (o % outs_per_tile_);
      for (std::int64_t pol = 0; pol < 2; ++pol) {
        const std::uint8_t f = t.fault[static_cast<std::size_t>(cell + pol)];
        if (f != 0) faults.push_back(CellFault{2 * (o * in_ + i) + pol, static_cast<FaultType>(f)});
      }
    }
  }
  return DefectMap::from_faults(2 * out_ * in_, std::move(faults));
}

void QuantizedCrossbarEngine::clear_defects() {
  for (std::int64_t rt = 0; rt < row_tiles_; ++rt) {
    for (std::int64_t ct = 0; ct < col_tiles_; ++ct) {
      Tile& t = tile(rt, ct);
      std::fill(t.fault.begin(), t.fault.end(), std::uint8_t{0});
      std::fill(t.check_fault.begin(), t.check_fault.end(), std::uint8_t{0});
      repack_tile(t, valid_rows_of(rt));
    }
  }
}

namespace {

/// Folds |v| into absmax when v is finite and clears `finite` when it is
/// not: the scale ignores NaN and Inf, so one bad request cannot rescale (or,
/// through an infinite absmax, poison) its batchmates.
FTPIM_HOT inline void fold_absmax(float v, float& absmax, bool& finite) noexcept {
  const float a = std::fabs(v);
  if (a <= std::numeric_limits<float>::max()) {
    if (a > absmax) absmax = a;
  } else {
    finite = false;
  }
}

/// The symmetric int8 code of one activation at scale inv_scale = 127 /
/// absmax. A non-finite activation gets code 0; every output it reaches is
/// overwritten with NaN afterwards.
FTPIM_HOT inline std::int8_t quantize_code(float v, float inv_scale) noexcept {
  if (!std::isfinite(v)) return 0;
  const long code = std::lround(v * inv_scale);
  return static_cast<std::int8_t>(std::clamp<long>(code, -127, 127));
}

/// mask[i] = 1 for every input position i in [0, in) that some output
/// window covers along one axis (windows of `kernel` taps, `stride` apart,
/// starting at -pad).
FTPIM_HOT void mark_covered(std::uint8_t* mask, std::int64_t in, std::int64_t out,
                            std::int64_t stride, std::int64_t pad, std::int64_t kernel) noexcept {
  std::fill(mask, mask + in, std::uint8_t{0});
  for (std::int64_t o = 0; o < out; ++o) {
    const std::int64_t first = std::max<std::int64_t>(0, o * stride - pad);
    const std::int64_t last = std::min(in, o * stride - pad + kernel);
    for (std::int64_t i = first; i < last; ++i) mask[i] = 1;
  }
}

/// Gathers the int8 patch rows of output pixels [lo, hi) from an image of
/// codes into xq (row stride `stride`), in im2col's feature order (channel,
/// kernel row, kernel column), with 0 for padding taps and for the odd-K
/// pad byte.
FTPIM_HOT void gather_patches(const std::int8_t* codes, const ConvGeometry& g, std::int64_t lo,
                              std::int64_t hi, std::int8_t* xq, std::int64_t stride) noexcept {
  const std::int64_t ow = g.out_w();
  const std::int64_t kh = g.kernel_h;
  const std::int64_t kw = g.kernel_w;
  const std::int64_t in = g.col_rows();
  const std::int64_t plane = g.in_h * g.in_w;
  for (std::int64_t p = lo; p < hi; ++p) {
    std::int8_t* row = xq + p * stride;
    const std::int64_t iy0 = (p / ow) * g.stride_h - g.pad_h;
    const std::int64_t ix0 = (p % ow) * g.stride_w - g.pad_w;
    const bool interior_x = ix0 >= 0 && ix0 + kw <= g.in_w;
    for (std::int64_t c = 0; c < g.in_c; ++c) {
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        std::int8_t* dst = row + (c * kh + ky) * kw;
        const std::int64_t iy = iy0 + ky;
        if (iy < 0 || iy >= g.in_h) {
          std::memset(dst, 0, static_cast<std::size_t>(kw));
          continue;
        }
        const std::int8_t* src = codes + c * plane + iy * g.in_w;
        if (interior_x) {
          std::memcpy(dst, src + ix0, static_cast<std::size_t>(kw));
          continue;
        }
        for (std::int64_t kx = 0; kx < kw; ++kx) {
          const std::int64_t ix = ix0 + kx;
          dst[kx] = (ix >= 0 && ix < g.in_w) ? src[ix] : std::int8_t{0};
        }
      }
    }
    if ((in & 1) != 0) row[in] = 0;
  }
}

/// Rows of x[rows, in] holding a non-finite value get NaN in every output of
/// their y row. Runs only when the scale pass saw one.
FTPIM_COLD void poison_rows(const float* x, std::int64_t rows, std::int64_t in, std::int64_t out,
                            float* y) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xrow = x + r * in;
    if (std::all_of(xrow, xrow + in, [](float v) { return std::isfinite(v); })) continue;
    std::fill(y + r * out, y + (r + 1) * out, std::numeric_limits<float>::quiet_NaN());
  }
}

/// Output pixels whose window covers a non-finite pixel of image x get NaN
/// in every channel of y[out, pixels]. Runs only when the scale pass saw one.
FTPIM_COLD void poison_pixels(const float* x, const ConvGeometry& g, std::int64_t out, float* y) {
  const std::int64_t ow = g.out_w();
  const std::int64_t pixels = g.out_h() * ow;
  for (std::int64_t p = 0; p < pixels; ++p) {
    const std::int64_t iy0 = (p / ow) * g.stride_h - g.pad_h;
    const std::int64_t ix0 = (p % ow) * g.stride_w - g.pad_w;
    const std::int64_t y_end = std::min(iy0 + g.kernel_h, g.in_h);
    const std::int64_t x_end = std::min(ix0 + g.kernel_w, g.in_w);
    bool finite = true;
    for (std::int64_t c = 0; c < g.in_c; ++c) {
      for (std::int64_t iy = std::max<std::int64_t>(iy0, 0); iy < y_end; ++iy) {
        for (std::int64_t ix = std::max<std::int64_t>(ix0, 0); ix < x_end; ++ix) {
          finite = finite && std::isfinite(x[(c * g.in_h + iy) * g.in_w + ix]);
        }
      }
    }
    if (finite) continue;
    for (std::int64_t o = 0; o < out; ++o) y[o * pixels + p] = std::numeric_limits<float>::quiet_NaN();
  }
}

/// Rare-path clip scan for the ABFT veto: recomputes the digitized value of
/// columns [begin, end) of one (sample, tile) readout and reports whether
/// any reached the converter rails. Runs only when a residual is already out
/// of tolerance, so the clean readout pays nothing for clip detection.
/// Callers pass only columns the kernel computed in this call: the rest of
/// the row holds stale values from earlier calls.
FTPIM_COLD bool any_column_clipped(const std::int32_t* crow, const std::int32_t* delta,
                                   const std::int64_t* sat, std::int64_t begin, std::int64_t end,
                                   std::int32_t qmax) {
  for (std::int64_t c = begin; c < end; ++c) {
    const std::int32_t d = adc_digitize(crow[c], delta[static_cast<std::size_t>(c)], qmax);
    if (static_cast<std::int64_t>(d < 0 ? -d : d) >= sat[static_cast<std::size_t>(c)]) {
      return true;
    }
  }
  return false;
}

}  // namespace

FTPIM_HOT void QuantizedCrossbarEngine::mvm_batch(const float* x, std::int64_t batch,
                                                  float* y) const {
  FTPIM_CHECK_GE(batch, 0);
  if (batch == 0) return;

  // Per-batch symmetric activation scale: sx = absmax / 127. A zero batch
  // yields zero drive everywhere — short-circuit before dividing.
  float absmax = 0.0f;
  bool finite = true;
  for (std::int64_t i = 0; i < batch * in_; ++i) fold_absmax(x[i], absmax, finite);
  if (absmax == 0.0f) {
    std::fill(y, y + batch * out_, 0.0f);
  } else {
    const float inv_scale = 127.0f / absmax;
    // Odd in_ needs one zero pad byte per row: the kernels consume K in pairs
    // (qgemm.hpp's lda >= k + (k & 1) contract). tile_rows is even, so only
    // the LAST row tile can see an odd k, and its pad lands at column in_.
    const std::int64_t stride = in_ + (in_ & 1);
    auto* xq = reinterpret_cast<std::int8_t*>(kernels::PackArena::local().byte_buffer(
        0, static_cast<std::size_t>(batch * stride)));
    // Row-parallel over the batch: each worker quantizes its own slice of
    // xq, then walks every tile. All per-output state is integer until the
    // single dequantizing multiply, so the partition never changes a bit of y.
    parallel_for_chunks(
        0, static_cast<std::size_t>(batch),
        [&](std::size_t lo_s, std::size_t hi_s) {
          const auto lo = static_cast<std::int64_t>(lo_s);
          const auto hi = static_cast<std::int64_t>(hi_s);
          for (std::int64_t bi = lo; bi < hi; ++bi) {
            const float* xrow = x + bi * in_;
            std::int8_t* qrow = xq + bi * stride;
            for (std::int64_t i = 0; i < in_; ++i) qrow[i] = quantize_code(xrow[i], inv_scale);
            if ((in_ & 1) != 0) qrow[in_] = 0;
          }
          walk_tiles(xq, lo, hi, absmax, y, out_, 1);
        },
        2);
  }
  if (!finite) poison_rows(x, batch, in_, out_, y);
}

FTPIM_HOT void QuantizedCrossbarEngine::conv_image(const float* x, const ConvGeometry& g,
                                                   float* y) const {
  FTPIM_CHECK_EQ(g.col_rows(), in_, "QuantizedCrossbarEngine::conv_image: patch length mismatch");
  const std::int64_t pixels = g.col_cols();
  const std::int64_t plane = g.in_h * g.in_w;
  kernels::PackArena& arena = kernels::PackArena::local();
  // Byte slot 1 holds the per-axis cover masks, then the image's int8 codes;
  // slot 0 receives the gathered patch rows, as in mvm_batch.
  std::uint8_t* cover = arena.byte_buffer(
      1, static_cast<std::size_t>(g.in_h + g.in_w + g.in_c * plane));
  std::uint8_t* row_cover = cover;
  std::uint8_t* col_cover = cover + g.in_h;
  auto* codes = reinterpret_cast<std::int8_t*>(cover + g.in_h + g.in_w);
  mark_covered(row_cover, g.in_h, g.out_h(), g.stride_h, g.pad_h, g.kernel_h);
  mark_covered(col_cover, g.in_w, g.out_w(), g.stride_w, g.pad_w, g.kernel_w);

  // The staged patch matrix holds exactly the covered pixels plus padding
  // zeros, so its absmax is the absmax over covered pixels: a pixel no
  // window reads (stride > kernel) must not set the scale.
  float absmax = 0.0f;
  bool finite = true;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    for (std::int64_t iy = 0; iy < g.in_h; ++iy) {
      if (row_cover[iy] == 0) continue;
      const float* src = x + c * plane + iy * g.in_w;
      for (std::int64_t ix = 0; ix < g.in_w; ++ix) {
        if (col_cover[ix] != 0) fold_absmax(src[ix], absmax, finite);
      }
    }
  }
  if (absmax == 0.0f) {
    std::fill(y, y + out_ * pixels, 0.0f);
  } else {
    // Each covered pixel is quantized once, with mvm_batch's expression, so
    // every gathered code equals the code mvm_batch gives that patch entry.
    const float inv_scale = 127.0f / absmax;
    for (std::int64_t c = 0; c < g.in_c; ++c) {
      for (std::int64_t iy = 0; iy < g.in_h; ++iy) {
        if (row_cover[iy] == 0) continue;
        const float* src = x + c * plane + iy * g.in_w;
        std::int8_t* dst = codes + c * plane + iy * g.in_w;
        for (std::int64_t ix = 0; ix < g.in_w; ++ix) {
          if (col_cover[ix] != 0) dst[ix] = quantize_code(src[ix], inv_scale);
        }
      }
    }
    const std::int64_t stride = in_ + (in_ & 1);
    auto* xq = reinterpret_cast<std::int8_t*>(
        arena.byte_buffer(0, static_cast<std::size_t>(pixels * stride)));
    // Same row-parallel split as mvm_batch, over output pixels; the result
    // lands transposed, straight in the [out, pixels] slice.
    parallel_for_chunks(
        0, static_cast<std::size_t>(pixels),
        [&](std::size_t lo_s, std::size_t hi_s) {
          const auto lo = static_cast<std::int64_t>(lo_s);
          const auto hi = static_cast<std::int64_t>(hi_s);
          gather_patches(codes, g, lo, hi, xq, stride);
          walk_tiles(xq, lo, hi, absmax, y, 1, pixels);
        },
        2);
  }
  if (!finite) poison_pixels(x, g, out_, y);
}

FTPIM_HOT void QuantizedCrossbarEngine::walk_tiles(const std::int8_t* xq, std::int64_t lo,
                                                   std::int64_t hi, float absmax, float* y,
                                                   std::int64_t y_row, std::int64_t y_out) const {
  const std::int64_t mb = hi - lo;
  const std::int64_t stride = in_ + (in_ & 1);
  const float dequant = (absmax / 127.0f) * (w_max_ / static_cast<float>(config_.levels - 1));
  const std::int64_t tc = config_.tile_cols;
  const std::int64_t pc = packed_cols_;  // tc + checksum digit columns
  const bool do_abft = check_cols_ > 0;
  const std::int64_t levels = config_.levels;
  // The checksum digits are columns [tc, chk_end); chk_begin is the first
  // column of their first panel. The kernel is asked for columns up to
  // chk_end only: the dead pad columns past it are never read, and on a
  // full tile the AVX2 kernel computes a digit panel of at most 8 valid
  // columns in the last data panel's pass.
  const std::int64_t chk_begin = tc / kernels::kQNR * kernels::kQNR;
  const std::int64_t chk_end = tc + check_cols_;
  const kernels::QmvmKernel kern = kernels::select_qmvm_kernel(kernels::active_kernel_level());
  const bool ideal_adc = config_.adc.ideal();
  const std::int32_t qmax = ideal_adc ? 0 : config_.adc.qmax();

  kernels::PackArena& arena = kernels::PackArena::local();
  std::int32_t* cur = arena.i32_buffer(0, static_cast<std::size_t>(mb * pc));
  std::int64_t* acc = arena.i64_buffer(0, static_cast<std::size_t>(mb * out_));
  std::fill(acc, acc + mb * out_, std::int64_t{0});
  std::int64_t* mm = nullptr;  // per-worker per-tile mismatch counts
  std::int64_t chunk_checks = 0;
  if (do_abft) {
    mm = arena.i64_buffer(1, tiles_.size());
    std::fill(mm, mm + tiles_.size(), std::int64_t{0});
  }

  for (std::int64_t rt = 0; rt < row_tiles_; ++rt) {
    const std::int64_t base = rt * config_.tile_rows;
    const std::int64_t valid = std::min(config_.tile_rows, in_ - base);
    const std::int8_t* a = xq + lo * stride + base;
    // Packed panel stride: ceil(valid / 2) k-pairs of kQNR column pairs.
    const std::int64_t panel_bytes = kernels::ceil_div(valid, 2) * 2 * kernels::kQNR;
    for (std::int64_t ct = 0; ct < col_tiles_; ++ct) {
      const Tile& t = tile(rt, ct);
      const std::int64_t out_base = ct * outs_per_tile_;
      const std::int64_t out_count = std::min(outs_per_tile_, out_ - out_base);
      // A verified tile folds the checksum comparison into the readout
      // loop: the per-output accumulation below is kept expression-for-
      // expression identical to the unverified branch, so enabling ABFT
      // never changes a bit of y.
      const bool check_tile = do_abft && t.check_ok != 0;
      // Read bound: the readout reads the mapped data columns and, on a
      // verified tile, the data columns below nz_cols plus the checksum
      // digits. The kernel computes only the panels holding those columns;
      // the columns it skips are never read or read exactly zero, so y and
      // every ABFT tally are unchanged.
      const std::int64_t dcols = check_tile ? std::max(2 * out_count, t.nz_cols) : 2 * out_count;
      const std::int64_t data_end =
          std::min(kernels::ceil_div(dcols, kernels::kQNR) * kernels::kQNR, pc);
      if (!check_tile) {
        kern(mb, data_end, valid, a, stride, t.packed.data(), cur, pc);
      } else if (data_end >= chk_begin) {
        kern(mb, chk_end, valid, a, stride, t.packed.data(), cur, pc);
      } else {
        kern(mb, data_end, valid, a, stride, t.packed.data(), cur, pc);
        kern(mb, chk_end - chk_begin, valid, a, stride,
             t.packed.data() + chk_begin / kernels::kQNR * panel_bytes, cur + chk_begin, pc);
      }
      for (std::int64_t bi = 0; bi < mb; ++bi) {
        const std::int32_t* crow = cur + bi * pc;
        std::int64_t* arow = acc + bi * out_ + out_base;
        std::int64_t dsum = 0;  // sum of digitized data columns
        if (ideal_adc) {
          if (check_tile) {
            for (std::int64_t o = 0; o < out_count; ++o) {
              arow[o] += crow[2 * o] - crow[2 * o + 1];
              dsum += static_cast<std::int64_t>(crow[2 * o]) + crow[2 * o + 1];
            }
          } else {
            for (std::int64_t o = 0; o < out_count; ++o) {
              arow[o] += crow[2 * o] - crow[2 * o + 1];
            }
          }
        } else {
          if (check_tile) {
            for (std::int64_t o = 0; o < out_count; ++o) {
              const std::int32_t dp =
                  adc_digitize(crow[2 * o], t.delta[static_cast<std::size_t>(2 * o)], qmax);
              const std::int32_t dn =
                  adc_digitize(crow[2 * o + 1], t.delta[static_cast<std::size_t>(2 * o + 1)], qmax);
              arow[o] += dp - dn;
              dsum += static_cast<std::int64_t>(dp) + dn;
            }
          } else {
            for (std::int64_t o = 0; o < out_count; ++o) {
              arow[o] +=
                  adc_digitize(crow[2 * o], t.delta[static_cast<std::size_t>(2 * o)], qmax) -
                  adc_digitize(crow[2 * o + 1], t.delta[static_cast<std::size_t>(2 * o + 1)], qmax);
            }
          }
        }
        if (check_tile) {
          // Data columns past the mapped outputs (edge col tiles only)
          // still count toward the checksum identity — but only up to
          // the tile's last nonzero column; the rest read exactly zero.
          for (std::int64_t c = 2 * out_count; c < dcols; ++c) {
            dsum += ideal_adc ? crow[c]
                              : adc_digitize(crow[c], t.delta[static_cast<std::size_t>(c)], qmax);
          }
          std::int64_t chk = 0;  // sum_k L^k * digit column k, via Horner
          for (std::int64_t k = check_cols_ - 1; k >= 0; --k) {
            std::int32_t v = crow[tc + k];
            if (!ideal_adc) v = adc_digitize(v, t.delta[static_cast<std::size_t>(tc + k)], qmax);
            chk = chk * levels + v;
          }
          ++chunk_checks;
          const std::int64_t res = dsum - chk;
          if ((res < 0 ? -2 * res : 2 * res) > t.tol2) {
            // Out-of-tolerance residual. On the ADC path a saturated
            // column breaks the linearity the identity needs, so the
            // clip veto is decided HERE, on the rare mismatch path,
            // instead of per column in the clean readout above. A
            // clipped sample whose distorted residual still lands
            // inside tolerance counts as a check but cannot alarm. The
            // scan covers the computed columns only; a skipped column
            // is zero and cannot clip.
            const bool clipped =
                !ideal_adc &&
                (any_column_clipped(crow, t.delta.data(), t.sat.data(), 0, dcols, qmax) ||
                 any_column_clipped(crow, t.delta.data(), t.sat.data(), tc, chk_end, qmax));
            if (!clipped) {
              ++mm[static_cast<std::size_t>(rt * col_tiles_ + ct)];
            } else {
              --chunk_checks;  // vetoed, not verified
            }
          }
        }
      }
    }
  }
  if (do_abft) abft_.merge(mm, chunk_checks);

  for (std::int64_t bi = 0; bi < mb; ++bi) {
    float* yrow = y + (lo + bi) * y_row;
    const std::int64_t* arow = acc + bi * out_;
    for (std::int64_t o = 0; o < out_; ++o) {
      yrow[o * y_out] = static_cast<float>(arow[o]) * dequant;
    }
  }
}

Tensor QuantizedCrossbarEngine::read_back() const {
  Tensor w(Shape{out_, in_});
  const ConductanceQuantizer quantizer(config_.range, config_.levels);
  const float g_to_w = w_max_ / config_.range.span();
  for (std::int64_t o = 0; o < out_; ++o) {
    const std::int64_t ct = o / outs_per_tile_;
    const std::int64_t local_o = o % outs_per_tile_;
    for (std::int64_t i = 0; i < in_; ++i) {
      const std::int64_t rt = i / config_.tile_rows;
      const std::int64_t local_r = i % config_.tile_rows;
      const Tile& t = tile(rt, ct);
      const std::size_t base = static_cast<std::size_t>(local_r * config_.tile_cols + 2 * local_o);
      const float g_pos = quantizer.level_value(effective_level(t, base));
      const float g_neg = quantizer.level_value(effective_level(t, base + 1));
      w.at(o, i) = (g_pos - g_neg) * g_to_w;
    }
  }
  return w;
}

}  // namespace ftpim::qinfer
