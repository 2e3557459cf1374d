// ABFT checksum columns on the quantized crossbar engine (src/reram/abft.hpp):
//   * Abft           — digit-column sizing, report merging, the accumulator;
//   * AbftQuantized  — base-L digit checksums on the quantized engine: clean
//     MVMs verify silently, data outputs are bit-identical with ABFT on/off,
//     post-baseline faults are detected AND localized to their (rt, ct) tile,
//     scrubbing heals transient faults, rebaselining accepts existing ones,
//     and detection decisions are invariant across threads and kernel levels.
// Suite names start with Abft* so scripts/ci.sh's TSan leg picks them up.
#include "src/reram/abft.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/reram/defect_map.hpp"
#include "src/reram/qinfer/quantized_engine.hpp"
#include "src/tensor/kernels/dispatch.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

using kernels::KernelLevel;
using qinfer::QuantizedCrossbarEngine;
using qinfer::QuantizedEngineConfig;
using testing::random_tensor;
using testing::ThreadGuard;

class LevelGuard {
 public:
  explicit LevelGuard(KernelLevel level) { kernels::set_kernel_level(level); }
  ~LevelGuard() { kernels::clear_kernel_level_override(); }
};

std::vector<KernelLevel> runnable_levels() {
  std::vector<KernelLevel> levels = {KernelLevel::kScalar};
  if (kernels::avx2_available()) levels.push_back(KernelLevel::kAvx2);
  return levels;
}

// ---------------------------------------------------------------------------
// Abft: module-level pieces

TEST(Abft, ChecksumDigitColumnsCoverTheWorstRowSum) {
  // Smallest d with levels^d > (levels-1) * data_cols.
  EXPECT_EQ(abft::checksum_digit_columns(16, 128), 3);  // 15*128=1920, 16^3=4096
  EXPECT_EQ(abft::checksum_digit_columns(16, 16), 2);   // 15*16=240, 16^2=256
  EXPECT_EQ(abft::checksum_digit_columns(256, 1), 1);   // 255, 256^1
  EXPECT_EQ(abft::checksum_digit_columns(2, 4), 3);     // 4, 2^3=8
  EXPECT_EQ(abft::checksum_digit_columns(4, 1000), 6);  // 3000, 4^6=4096
}

TEST(Abft, AccumulatorTakeDrainsAndStaysArmed) {
  abft::AbftAccumulator acc;
  EXPECT_FALSE(acc.armed());
  acc.reset(2, 3);
  EXPECT_TRUE(acc.armed());
  // Two worker chunks over a 2x3 grid.
  const std::int64_t chunk1[6] = {0, 1, 0, 0, 0, 2};
  const std::int64_t chunk2[6] = {0, 1, 0, 0, 0, 0};
  acc.merge(chunk1, 4);
  acc.merge(chunk2, 4);
  abft::TileFaultReport rep = acc.take();
  EXPECT_EQ(rep.checks, 8);
  EXPECT_EQ(rep.mismatches, 4);
  ASSERT_EQ(rep.flagged_tiles(), 2);
  EXPECT_EQ(rep.tiles[0].row_tile, 0);
  EXPECT_EQ(rep.tiles[0].col_tile, 1);
  EXPECT_EQ(rep.tiles[0].mismatches, 2);
  EXPECT_EQ(rep.tiles[1].row_tile, 1);
  EXPECT_EQ(rep.tiles[1].col_tile, 2);
  EXPECT_EQ(rep.tiles[1].mismatches, 2);
  // take() drained the tallies but kept the grid armed.
  EXPECT_TRUE(acc.armed());
  EXPECT_TRUE(acc.take().clean());
}

// ---------------------------------------------------------------------------
// AbftQuantized

QuantizedEngineConfig small_qconfig(bool abft_on, int adc_bits = 0) {
  QuantizedEngineConfig cfg;
  cfg.tile_rows = 32;
  cfg.tile_cols = 16;  // outs_per_tile = 8; 2 checksum digit columns at L=16
  cfg.levels = 16;
  cfg.adc.bits = adc_bits;
  cfg.abft.enabled = abft_on;
  return cfg;
}

TEST(AbftQuantized, CleanEngineVerifiesSilently) {
  const Tensor w = random_tensor(Shape{20, 40}, 31);
  const Tensor x = random_tensor(Shape{6, 40}, 77);
  for (const int bits : {0, 8}) {
    QuantizedCrossbarEngine engine(w, small_qconfig(true, bits));
    ASSERT_TRUE(engine.abft_enabled());
    EXPECT_EQ(engine.checksum_columns(), 2);
    std::vector<float> y(6 * 20);
    engine.mvm_batch(x.data(), 6, y.data());
    const abft::TileFaultReport rep = engine.take_abft_report();
    // No check may misfire: the ideal-ADC tolerance is exactly zero, the ADC
    // tolerance is the rounding bound with clipped samples vetoed (so with an
    // ADC the check count can fall below samples x tiles, but not to zero).
    if (bits == 0) {
      EXPECT_EQ(rep.checks, 6 * engine.tile_count());
    } else {
      EXPECT_GT(rep.checks, 0);
      EXPECT_LE(rep.checks, 6 * engine.tile_count());
    }
    EXPECT_TRUE(rep.clean()) << "adc bits=" << bits << ": " << rep.mismatches;
  }
}

TEST(AbftQuantized, DataOutputsBitIdenticalWithAbftOnOrOff) {
  const Tensor w = random_tensor(Shape{20, 40}, 32);
  const Tensor x = random_tensor(Shape{5, 40}, 78);
  for (const int bits : {0, 8}) {
    QuantizedCrossbarEngine on(w, small_qconfig(true, bits));
    QuantizedCrossbarEngine off(w, small_qconfig(false, bits));
    std::vector<float> y_on(5 * 20), y_off(5 * 20);
    on.mvm_batch(x.data(), 5, y_on.data());
    off.mvm_batch(x.data(), 5, y_off.data());
    // The checksum columns ride in the same packed buffer but past the data
    // columns, so the data outputs must not move by a single bit.
    EXPECT_EQ(std::memcmp(y_on.data(), y_off.data(), y_on.size() * sizeof(float)), 0)
        << "adc bits=" << bits;
  }
}

TEST(AbftQuantized, DetectsAndLocalizesPostBaselineFault) {
  // Weight (o=13, i=37) sits in tile (rt = 37/32 = 1, ct = 13/8 = 1). Pin it
  // to zero so a stuck-on positive cell (level 15) is a guaranteed large
  // level-domain change, then fault exactly that cell AFTER construction.
  Tensor w = random_tensor(Shape{20, 40}, 33);
  const std::int64_t o = 13, i = 37, in = 40;
  w[o * in + i] = 0.0f;
  const Tensor x = random_tensor(Shape{4, 40}, 79);
  QuantizedCrossbarEngine engine(w, small_qconfig(true, /*adc_bits=*/0));
  const DefectMap map = DefectMap::from_faults(
      2 * 20 * 40, {{2 * (o * in + i), FaultType::kStuckOn}});
  engine.apply_defect_map(map);

  std::vector<float> y(4 * 20);
  engine.mvm_batch(x.data(), 4, y.data());
  const abft::TileFaultReport rep = engine.take_abft_report();
  EXPECT_FALSE(rep.clean());
  ASSERT_EQ(rep.flagged_tiles(), 1) << "exactly one tile must be named";
  EXPECT_EQ(rep.tiles[0].row_tile, 1);
  EXPECT_EQ(rep.tiles[0].col_tile, 1);
  // Every sample drives row 37 with a nonzero activation, so every check of
  // that tile trips.
  EXPECT_EQ(rep.tiles[0].mismatches, 4);
  EXPECT_EQ(rep.mismatches, 4);
}

TEST(AbftQuantized, AdcPathDetectsFaultsBeyondTheRoundingBound) {
  Tensor w = random_tensor(Shape{20, 40}, 34);
  const std::int64_t o = 3, i = 10, in = 40;
  w[o * in + i] = 0.0f;
  const Tensor x = random_tensor(Shape{8, 40}, 80);
  QuantizedCrossbarEngine engine(w, small_qconfig(true, /*adc_bits=*/8));
  const DefectMap map = DefectMap::from_faults(
      2 * 20 * 40, {{2 * (o * in + i), FaultType::kStuckOn}});
  engine.apply_defect_map(map);
  std::vector<float> y(8 * 20);
  engine.mvm_batch(x.data(), 8, y.data());
  const abft::TileFaultReport rep = engine.take_abft_report();
  // A full-swing stuck-on dwarfs the per-column ADC rounding tolerance.
  EXPECT_FALSE(rep.clean());
  ASSERT_GE(rep.flagged_tiles(), 1);
  EXPECT_EQ(rep.tiles[0].row_tile, 0);
  EXPECT_EQ(rep.tiles[0].col_tile, 0);
}

TEST(AbftQuantized, ScrubHealsTransientFaultsInPlace) {
  const Tensor w = random_tensor(Shape{20, 40}, 35);
  const Tensor x = random_tensor(Shape{4, 40}, 81);
  QuantizedCrossbarEngine engine(w, small_qconfig(true));
  std::vector<float> clean(4 * 20);
  engine.mvm_batch(x.data(), 4, clean.data());
  (void)engine.take_abft_report();

  // Transient upset: faults land, detection names the tiles...
  engine.apply_defect_map(DefectMap::from_faults(
      2 * 20 * 40, {{2 * (2 * 40 + 5), FaultType::kStuckOn},
                             {2 * (17 * 40 + 38) + 1, FaultType::kStuckOn}}));
  std::vector<float> y(4 * 20);
  engine.mvm_batch(x.data(), 4, y.data());
  abft::TileFaultReport rep = engine.take_abft_report();
  ASSERT_FALSE(rep.clean());
  EXPECT_EQ(rep.flagged_tiles(), 2);

  // ...and scrubbing exactly those tiles restores bit-exact clean outputs
  // without touching the rest of the die.
  EXPECT_EQ(engine.scrub(rep), 2);
  engine.mvm_batch(x.data(), 4, y.data());
  rep = engine.take_abft_report();
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(std::memcmp(y.data(), clean.data(), y.size() * sizeof(float)), 0);
}

TEST(AbftQuantized, RebaselineAcceptsManufacturingFaults) {
  const Tensor w = random_tensor(Shape{20, 40}, 36);
  const Tensor x = random_tensor(Shape{4, 40}, 82);
  QuantizedCrossbarEngine engine(w, small_qconfig(true));
  engine.apply_defect_map(DefectMap::from_faults(
      2 * 20 * 40, {{2 * (6 * 40 + 20), FaultType::kStuckOn}}));
  std::vector<float> y(4 * 20);
  engine.mvm_batch(x.data(), 4, y.data());
  ASSERT_FALSE(engine.take_abft_report().clean());

  // Install-time acceptance: the same die, rebaselined, stops ringing — an
  // FT-trained network tolerates its manufacturing defects, so they must not
  // trigger repair thrash.
  engine.abft_rebaseline();
  engine.mvm_batch(x.data(), 4, y.data());
  EXPECT_TRUE(engine.take_abft_report().clean());
}

TEST(AbftQuantized, DeviceDefectsWithRebaselineStayClean) {
  // Heavy device damage, including faults in checksum cells: rebaselining
  // accepts the damage and silences tiles whose check column itself is stuck;
  // the combination must produce zero detections (and the silenced tiles are
  // visible through abft_tile_active).
  const Tensor w = random_tensor(Shape{24, 64}, 37);
  const Tensor x = random_tensor(Shape{4, 64}, 83);
  QuantizedCrossbarEngine engine(w, small_qconfig(true));
  engine.apply_device_defects(StuckAtFaultModel(0.3), /*master_seed=*/5, /*device_index=*/1);
  engine.abft_rebaseline();
  std::vector<float> y(4 * 24);
  engine.mvm_batch(x.data(), 4, y.data());
  const abft::TileFaultReport rep = engine.take_abft_report();
  EXPECT_TRUE(rep.clean()) << rep.mismatches << " mismatches";
  std::int64_t active = 0;
  for (std::int64_t rt = 0; rt < engine.row_tile_count(); ++rt) {
    for (std::int64_t ct = 0; ct < engine.col_tile_count(); ++ct) {
      active += engine.abft_tile_active(rt, ct) ? 1 : 0;
    }
  }
  // Silenced tiles are excluded from the check count.
  EXPECT_EQ(rep.checks, 4 * active);
}

TEST(AbftQuantized, DecisionsInvariantAcrossThreadsAndKernels) {
  Tensor w = random_tensor(Shape{36, 100}, 38);
  w[9 * 100 + 50] = 0.0f;
  const Tensor x = random_tensor(Shape{7, 100}, 84);
  const DefectMap map = DefectMap::from_faults(
      2 * 36 * 100, {{2 * (9 * 100 + 50), FaultType::kStuckOn}});

  std::vector<float> ref;
  abft::TileFaultReport ref_rep;
  bool first = true;
  for (const KernelLevel level : runnable_levels()) {
    for (const int threads : {1, 4}) {
      LevelGuard lg(level);
      ThreadGuard tg(threads);
      QuantizedCrossbarEngine engine(w, small_qconfig(true, /*adc_bits=*/8));
      engine.apply_defect_map(map);
      std::vector<float> y(7 * 36);
      engine.mvm_batch(x.data(), 7, y.data());
      const abft::TileFaultReport rep = engine.take_abft_report();
      if (first) {
        ref = y;
        ref_rep = rep;
        first = false;
        EXPECT_FALSE(rep.clean());
        continue;
      }
      EXPECT_EQ(std::memcmp(y.data(), ref.data(), y.size() * sizeof(float)), 0)
          << "level=" << static_cast<int>(level) << " threads=" << threads;
      EXPECT_EQ(rep.checks, ref_rep.checks);
      EXPECT_EQ(rep.mismatches, ref_rep.mismatches);
      ASSERT_EQ(rep.flagged_tiles(), ref_rep.flagged_tiles());
      for (std::size_t t = 0; t < rep.tiles.size(); ++t) {
        EXPECT_EQ(rep.tiles[t].row_tile, ref_rep.tiles[t].row_tile);
        EXPECT_EQ(rep.tiles[t].col_tile, ref_rep.tiles[t].col_tile);
        EXPECT_EQ(rep.tiles[t].mismatches, ref_rep.tiles[t].mismatches);
      }
    }
  }
}

/// FNV-1a over the bytes of y: a bit-exact output digest.
std::uint64_t digest(const std::vector<float>& y) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(y.data());
  for (std::size_t i = 0; i < y.size() * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

struct ReadBoundCase {
  std::int64_t out, in, tile_rows, tile_cols;
  int adc_bits;
  bool device_die;  ///< die from apply_device_defects, else from a model-cell map
  // Golden values, recorded while the kernel still computed every packed
  // column of every tile.
  std::uint64_t digest;
  std::int64_t checks, mismatches;
};

TEST(AbftQuantized, ColumnReadBoundKeepsOutputsAndTallies) {
  // Every shape leaves columns unmapped in some tile, so the kernel may skip
  // column panels there. The die's faults are accepted at the baseline; the
  // faults that follow it ring in the readout. A device die draws faults on
  // unmapped and checksum cells too, and its post-baseline draw raises dead
  // columns and hits checksum digits; a model-cell die, like a serve
  // replica's, leaves unmapped columns at level 0, so verified tiles skip
  // whole panels.
  const ReadBoundCase cases[] = {
      {5, 40, 16, 64, 0, true, 2686985635239824630ULL, 18, 18},
      {5, 40, 16, 64, 8, true, 3242538238379738437ULL, 4, 0},
      {37, 50, 32, 48, 0, true, 5803036847118053523ULL, 9, 9},
      {37, 50, 32, 48, 8, true, 12950826747815364146ULL, 6, 0},
      {3, 130, 128, 128, 0, true, 17004645329056131570ULL, 9, 9},
      {3, 130, 128, 128, 8, true, 16736760833517535207ULL, 4, 1},
      {5, 40, 16, 64, 0, false, 4491339318824833898ULL, 27, 27},
      {5, 40, 16, 64, 8, false, 12051868292992430355ULL, 15, 9},
      {37, 50, 32, 48, 0, false, 7469437121906682486ULL, 36, 36},
      {37, 50, 32, 48, 8, false, 12763853402789152604ULL, 16, 6},
      {3, 130, 128, 128, 0, false, 15922966193997408252ULL, 18, 9},
      {3, 130, 128, 128, 8, false, 8165658281305125278ULL, 18, 5},
  };
  for (const ReadBoundCase& c : cases) {
    QuantizedEngineConfig cfg;
    cfg.tile_rows = c.tile_rows;
    cfg.tile_cols = c.tile_cols;
    cfg.levels = 16;
    cfg.adc.bits = c.adc_bits;
    cfg.abft.enabled = true;
    const std::int64_t cells = 2 * c.out * c.in;
    const auto seed = static_cast<std::uint64_t>(c.out);
    const std::int64_t batch = 9;
    const Tensor x = random_tensor(Shape{batch, c.in}, 100 + static_cast<std::uint64_t>(c.in));
    for (const KernelLevel level : runnable_levels()) {
      for (const int threads : {1, 3}) {
        LevelGuard lg(level);
        ThreadGuard tg(threads);
        QuantizedCrossbarEngine engine(random_tensor(Shape{c.out, c.in}, 50 + seed), cfg);
        Rng rng(static_cast<std::uint64_t>(c.in));
        if (c.device_die) {
          engine.apply_device_defects(StuckAtFaultModel(0.02), /*master_seed=*/11, seed);
        } else {
          engine.apply_defect_map(DefectMap::sample(cells, StuckAtFaultModel(0.02), rng));
        }
        engine.abft_rebaseline();
        engine.apply_defect_map(DefectMap::sample(cells, StuckAtFaultModel(0.01), rng));
        if (c.device_die) {
          engine.apply_device_defects(StuckAtFaultModel(0.005), /*master_seed=*/12, seed);
        }
        std::vector<float> y(static_cast<std::size_t>(batch * c.out));
        engine.mvm_batch(x.data(), batch, y.data());
        const abft::TileFaultReport rep = engine.take_abft_report();
        const std::string where = "out=" + std::to_string(c.out) + " adc=" +
                                  std::to_string(c.adc_bits) + " device=" +
                                  std::to_string(c.device_die) + " level=" +
                                  std::to_string(static_cast<int>(level)) +
                                  " threads=" + std::to_string(threads);
        EXPECT_EQ(digest(y), c.digest) << where;
        EXPECT_EQ(rep.checks, c.checks) << where;
        EXPECT_EQ(rep.mismatches, c.mismatches) << where;
      }
    }
  }
}

TEST(AbftQuantized, ClipVetoScansOnlyComputedColumns) {
  // One worker, so both engines read their column sums from the same arena
  // slot. The wide call leaves large sums in every column of a 128-column
  // tile; the narrow engine maps 2 outputs (4 columns), so its kernel leaves
  // those stale sums in columns 16..127. Its residual is out of tolerance
  // and no computed column clips: the sample must count as a mismatch. A
  // clip veto that scanned the stale columns would see them saturate and
  // veto the check instead.
  ThreadGuard tg(1);
  QuantizedEngineConfig cfg;
  cfg.tile_rows = 64;
  cfg.tile_cols = 128;
  cfg.levels = 16;
  cfg.adc.bits = 8;
  cfg.abft.enabled = true;
  const std::int64_t in = 64, batch = 4;
  QuantizedCrossbarEngine wide(random_tensor(Shape{64, in}, 41), cfg);
  const std::vector<float> ones(static_cast<std::size_t>(batch * in), 1.0f);
  std::vector<float> y_wide(static_cast<std::size_t>(batch * 64));
  wide.mvm_batch(ones.data(), batch, y_wide.data());
  (void)wide.take_abft_report();

  // Rows 0..3 hold zero weights (level 0 in every cell and checksum digit),
  // and every sample drives them at full scale. Stuck-on faults on those rows
  // after the baseline, one per data column, move the residual by 4 * 127 *
  // 15 while each faulted column stays far below its clip level.
  Tensor w = random_tensor(Shape{2, in}, 42);
  for (std::int64_t o = 0; o < 2; ++o) {
    for (std::int64_t i = 0; i < 4; ++i) w[o * in + i] = 0.0f;
  }
  QuantizedCrossbarEngine narrow(w, cfg);
  narrow.apply_defect_map(DefectMap::from_faults(2 * 2 * in, {{2 * (0 * in + 0), FaultType::kStuckOn},
                                                             {2 * (0 * in + 1) + 1, FaultType::kStuckOn},
                                                             {2 * (1 * in + 2), FaultType::kStuckOn},
                                                             {2 * (1 * in + 3) + 1, FaultType::kStuckOn}}));
  Tensor x = random_tensor(Shape{batch, in}, 43, 0.05f);
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t i = 0; i < 4; ++i) x[b * in + i] = 1.0f;
  }
  std::vector<float> y(static_cast<std::size_t>(batch * 2));
  narrow.mvm_batch(x.data(), batch, y.data());
  const abft::TileFaultReport rep = narrow.take_abft_report();
  EXPECT_EQ(rep.checks, batch);
  EXPECT_EQ(rep.mismatches, batch);
  EXPECT_EQ(digest(y), 7475633874908122677ULL);
}

}  // namespace
}  // namespace ftpim
