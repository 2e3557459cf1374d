// Quantized crossbar inference engine: int8 conductance-domain compute with
// faults applied where the hardware sees them.
//
// CrossbarEngine (src/reram/crossbar_engine.hpp) is the analog-limit
// read-back oracle: float conductances, no compute. This engine simulates
// the digital reality of a multi-level-cell deployment:
//
//   * each weight is SNAPPED to one of L conductance levels and stored as a
//     uint8 level index per differential cell (G+ = g_min + lv+ * step,
//     step = span / (L - 1)), so the stored matrix is exactly what a
//     programming loop could write into an L-level device;
//   * stuck-at faults act in the LEVEL domain — stuck-off pins a cell at
//     level 0 (g_min), stuck-on at level L-1 (g_max) — in a separate fault
//     byte, so the programmed level survives and clear_defects restores it;
//   * the MVM is integer end to end: activations are quantized per batch
//     (per image for conv_image) to int8 codes (symmetric scale sx =
//     absmax / 127 over the finite activations), each tile computes
//     int8 x u8 -> int32 column sums through the qgemm kernel backend
//     (src/tensor/kernels/qgemm.hpp) for the column panels its readout
//     reads, the ADC model digitizes each column BEFORE the G+ - G-
//     subtraction (adc.hpp), and per-output partial sums accumulate across
//     row tiles in int64;
//   * one float multiply per output dequantizes at the very end:
//       y = total * (sx * w_max / (L - 1))
//     because w_eff = (lv+ - lv-) * step * w_max / span
//                   = (lv+ - lv-) * w_max / (L - 1).
//
// Determinism contract: everything between activation quantization and the
// final dequantize is integer arithmetic, which is exact and associative.
// mvm_batch and conv_image are therefore bit-identical across FTPIM_THREADS
// values AND across kernel levels (scalar vs AVX2) — strictly stronger than
// the float path's tolerance-based reproducibility.
//
// Non-finite activations: the scale is taken over finite values only, a
// non-finite activation quantizes to code 0, and every output that depends
// on one is NaN (the row for mvm_batch, each output pixel whose window
// covers it for conv_image). One bad request cannot change its batchmates.
//
// Tiling matches CrossbarEngine: weight (o, i) lives in tile
// (rt = i / tile_rows, ct = o / (tile_cols / 2)) at local row i % tile_rows,
// physical columns 2*local_o and 2*local_o + 1. apply_device_defects draws
// one defect map per tile from the derived device seed, so a given
// (master_seed, device_index) names one physical die.
// read_back() equals the weight-space injector at quant_levels == levels
// exactly for the same DefectMap (tests/crossbar_engine_test.cpp).
//
// Mutation (apply_* / clear_defects) is single-owner: do not mutate
// concurrently with mvm_batch calls. mvm_batch itself is internally parallel
// and safe to call from one thread at a time per engine.
#pragma once

#include <cstdint>
#include <vector>

#include "src/reram/abft.hpp"
#include "src/reram/conductance.hpp"
#include "src/reram/defect_map.hpp"
#include "src/reram/qinfer/adc.hpp"
#include "src/tensor/im2col.hpp"
#include "src/tensor/tensor.hpp"

namespace ftpim::qinfer {

struct QuantizedEngineConfig {
  /// Wordlines per tile; must be even (the int8 kernel consumes K in pairs,
  /// and an even split keeps the zero-pad contract at the last tile only).
  std::int64_t tile_rows = 128;
  /// Bitlines per tile; must be even (differential pairs).
  std::int64_t tile_cols = 128;
  ConductanceRange range{};
  /// Conductance levels per cell, in [2, 256] (uint8 level storage).
  int levels = 16;
  AdcConfig adc{};
  /// ABFT checksum columns + per-MVM verification (DESIGN.md section 14).
  abft::AbftConfig abft{};

  void validate() const;
};

class QuantizedCrossbarEngine {
 public:
  /// Programs W [out, in] onto level-index tiles with w_max =
  /// tensor_w_max(W), like CrossbarEngine and the weight-space injector.
  QuantizedCrossbarEngine(const Tensor& weights, const QuantizedEngineConfig& config);

  [[nodiscard]] std::int64_t out_features() const noexcept { return out_; }
  [[nodiscard]] std::int64_t in_features() const noexcept { return in_; }
  [[nodiscard]] std::int64_t tile_count() const noexcept {
    return static_cast<std::int64_t>(tiles_.size());
  }
  [[nodiscard]] const QuantizedEngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] float w_max() const noexcept { return w_max_; }
  [[nodiscard]] std::int64_t total_cells() const noexcept;
  [[nodiscard]] std::int64_t stuck_cells() const noexcept;

  /// Draws an independent defect map per tile (row-major tile order) from
  /// the device seed and applies it in the level domain — (master_seed,
  /// device_index) identifies one die.
  void apply_device_defects(const StuckAtFaultModel& model, std::uint64_t master_seed,
                            std::uint64_t device_index);

  /// Applies a weight-indexed defect map (cell_count == 2 * out * in; cell
  /// 2*w is the positive cell of flat weight w = o * in + i, cell 2*w + 1
  /// the negative cell) — the convention of
  /// src/reram/fault_injector.hpp, so ReplicaPool / evaluator maps drive
  /// this engine directly. Maps LAYER: cells named here overwrite their
  /// fault state, cells absent keep theirs (what in-service aging needs);
  /// clear_defects() is the only reset.
  void apply_defect_map(const DefectMap& map);

  /// The die's data-cell faults as a weight-indexed map in apply_defect_map's
  /// convention, so a die drawn by apply_device_defects can drive the float
  /// oracle or be replayed. Faults on padding cells outside W and on checksum
  /// cells have no model cell and are left out.
  [[nodiscard]] DefectMap defect_map() const;

  /// Restores a defect-free die (programmed levels stay).
  void clear_defects();

  /// y[batch, out] = x[batch, in] * W_effective^T through the quantized
  /// datapath. One int8 GEMM per tile; the activation scale is shared by the
  /// whole batch.
  void mvm_batch(const float* x, std::int64_t batch, float* y) const;

  /// One image of a convolution mapped onto this engine (in_features() ==
  /// g.col_rows()): x is [in_c, in_h, in_w], y is [out, out_h * out_w].
  /// Bit-identical, outputs and ABFT tallies, to mvm_batch over the image's
  /// [pixels, in] patch matrix transposed back (MvmHook's default staging):
  /// the scale is the absmax over the pixels some patch covers, each such
  /// pixel is quantized once, and the int8 patch rows are gathered straight
  /// into the kernel's row layout.
  void conv_image(const float* x, const ConvGeometry& g, float* y) const;

  /// Effective float weights reconstructed from the (faulted) level indices
  /// through the same readout equation as CrossbarEngine::read_back.
  [[nodiscard]] Tensor read_back() const;

  // --- ABFT (config().abft.enabled only; see src/reram/abft.hpp) ---

  [[nodiscard]] bool abft_enabled() const noexcept { return check_cols_ > 0; }
  /// Base-L digit columns appended per tile (0 when ABFT is off).
  [[nodiscard]] std::int64_t checksum_columns() const noexcept { return check_cols_; }
  [[nodiscard]] std::int64_t row_tile_count() const noexcept { return row_tiles_; }
  [[nodiscard]] std::int64_t col_tile_count() const noexcept { return col_tiles_; }
  /// False when the tile's verification was silenced at the last rebaseline
  /// because a checksum cell itself is stuck (the check column cannot be
  /// trusted; the canary path still covers the tile).
  [[nodiscard]] bool abft_tile_active(std::int64_t rt, std::int64_t ct) const;

  /// Recomputes every tile's checksum digits from the current EFFECTIVE
  /// levels: faults present now are accepted as the reference state (no
  /// further detections), faults that appear later are detected. Called once
  /// at install so a fault-tolerated die does not trigger repair thrash.
  void abft_rebaseline();

  /// Re-programs one tile from retained source levels: clears the tile's
  /// data- and checksum-cell faults and repacks. Unlike clear_defects this is
  /// tile-local; the caller re-applies its persistent DefectMap afterwards so
  /// aging-grown faults stay visible while transient faults heal.
  void scrub_tile(std::int64_t rt, std::int64_t ct);

  /// Scrubs every tile flagged in the report; returns the number scrubbed.
  std::int64_t scrub(const abft::TileFaultReport& report);

  /// Drains mismatch tallies accumulated by mvm / mvm_batch since the last
  /// drain (report.layer is left at -1; the deployment fills it in).
  [[nodiscard]] abft::TileFaultReport take_abft_report();

 private:
  struct Tile {
    std::vector<std::uint8_t> level;   ///< programmed level index per cell [rows * cols]
    std::vector<std::uint8_t> fault;   ///< FaultType per cell (0 = healthy)
    std::vector<std::uint8_t> packed;  ///< k-pair panels of the EFFECTIVE levels
    std::vector<std::int32_t> delta;   ///< per-bitline ADC step (bits > 0 only)
    // ABFT state (sized only when enabled):
    std::vector<std::uint8_t> check_level;  ///< baseline digits [rows * check_cols]
    std::vector<std::uint8_t> check_fault;  ///< FaultType per checksum cell
    std::uint8_t check_ok = 1;              ///< verification trusted for this tile
    std::int64_t tol2 = 0;  ///< 2x residual tolerance (0 on the ideal-ADC path)
    /// Per-column clip magnitude qmax * delta (ADC path only): a sample whose
    /// readout saturated any column of this tile is vetoed, not verified —
    /// clipping destroys the linearity the checksum identity needs.
    std::vector<std::int64_t> sat;
    /// 1 + highest data column with any nonzero effective level over the
    /// driven rows (ABFT only). Columns at or past this bound read exactly
    /// zero from the kernel, so neither the kernel nor verification visits
    /// them — on tiles whose outputs cover few columns this is most of the
    /// tile.
    std::int64_t nz_cols = 0;
  };

  [[nodiscard]] std::uint8_t effective_level(const Tile& t, std::size_t cell) const noexcept;
  [[nodiscard]] std::uint8_t effective_check_level(const Tile& t, std::int64_t r,
                                                   std::int64_t k) const noexcept;
  /// Rebuilds the packed panels and ADC deltas after any level/fault change.
  void repack_tile(Tile& t, std::int64_t valid_rows);
  /// Re-encodes the checksum digits from current effective levels, refreshes
  /// check_ok, and repacks (ABFT only).
  void rebaseline_tile(Tile& t, std::int64_t valid_rows);
  [[nodiscard]] const Tile& tile(std::int64_t rt, std::int64_t ct) const {
    return tiles_[static_cast<std::size_t>(rt * col_tiles_ + ct)];
  }
  [[nodiscard]] Tile& tile(std::int64_t rt, std::int64_t ct) {
    return tiles_[static_cast<std::size_t>(rt * col_tiles_ + ct)];
  }
  [[nodiscard]] std::int64_t valid_rows_of(std::int64_t rt) const noexcept;
  /// The tile walk mvm_batch and conv_image share: int8 rows [lo, hi) of xq
  /// (row stride in_ + (in_ & 1)) through every tile — kernel, ADC, ABFT
  /// verify, int64 accumulation — then y[r * y_row + o * y_out] = total *
  /// (absmax / 127) * w_max / (L - 1) for each row r and output o.
  void walk_tiles(const std::int8_t* xq, std::int64_t lo, std::int64_t hi, float absmax, float* y,
                  std::int64_t y_row, std::int64_t y_out) const;

  std::int64_t out_ = 0, in_ = 0;
  QuantizedEngineConfig config_;
  float w_max_ = 1.0f;
  std::int64_t row_tiles_ = 0, col_tiles_ = 0;
  std::int64_t outs_per_tile_ = 0;
  std::int64_t check_cols_ = 0;   ///< checksum digit columns (0 = ABFT off)
  std::int64_t packed_cols_ = 0;  ///< tile_cols + check_cols_, padded up to 16n when ABFT is on
  std::vector<Tile> tiles_;       ///< row-major [row_tile][col_tile]
  /// MVM workers merge mismatch counts here (cold, once per chunk).
  mutable abft::AbftAccumulator abft_;
};

}  // namespace ftpim::qinfer
