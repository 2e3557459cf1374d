// Quantized crossbar datapath, bottom up:
//   * QuantKernel  — pack_levels + qmvm vs a naive int32 reference across
//     edge shapes, with EXACT scalar/AVX2 equality (integer math);
//   * QuantAdc     — per-column delta sizing and the round-half-away /
//     clipping transfer of adc_digitize;
//   * QuantQuantizer — level_index/level_value round-trip property incl. the
//     exact midpoint tie-break (step chosen representable in float);
//   * QuantEngine  — fault-free read_back vs the float CrossbarEngine's
//     cells snapped to the same levels, mvm vs x * read_back()^T of the
//     float engine in the high-level / ideal-ADC limit, level-domain fault
//     semantics via read_back, per-device determinism of the defect stream
//     and its die on the float engine, and the determinism contract
//     (bit-identical across FTPIM_THREADS AND kernel levels). The faulted
//     read-back agreement with the float oracle and the weight-space
//     injector on shared maps lives in tests/crossbar_engine_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "src/common/rng.hpp"
#include "src/reram/conductance.hpp"
#include "src/reram/crossbar_engine.hpp"
#include "src/reram/defect_map.hpp"
#include "src/reram/qinfer/adc.hpp"
#include "src/reram/qinfer/quantized_engine.hpp"
#include "src/reram/quantizer.hpp"
#include "src/tensor/kernels/dispatch.hpp"
#include "src/tensor/kernels/qgemm.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

using kernels::KernelLevel;
using qinfer::AdcConfig;
using qinfer::QuantizedCrossbarEngine;
using qinfer::QuantizedEngineConfig;
using testing::random_tensor;
using testing::ThreadGuard;

/// Pins the dispatch level for a scope; restores the ambient default on exit.
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
// QuantKernel

/// c[i, j] = sum_p a[i, p] * b[p, j] over the LOGICAL (unpacked) operands.
void naive_qmvm(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
                std::int64_t lda, const std::uint8_t* b, std::int32_t* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<std::int32_t>(a[i * lda + p]) * b[p * n + j];
      }
      c[i * n + j] = acc;
    }
  }
}

struct QShape {
  std::int64_t m, n, k;
};

/// Padded-A activation codes: lda = k + (k & 1), pad byte zeroed per the
/// odd-k kernel contract.
std::vector<std::int8_t> random_codes(std::int64_t m, std::int64_t k, std::uint64_t seed) {
  const std::int64_t lda = k + (k & 1);
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * lda), 0);
  Rng rng(seed);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      a[static_cast<std::size_t>(i * lda + p)] =
          static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(255)) - 127);
    }
  }
  return a;
}

std::vector<std::uint8_t> random_levels(std::int64_t k, std::int64_t n, int levels,
                                        std::uint64_t seed) {
  std::vector<std::uint8_t> b(static_cast<std::size_t>(k * n));
  Rng rng(seed);
  for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform_int(static_cast<std::uint64_t>(levels)));
  return b;
}

TEST(QuantKernel, MatchesNaiveReferenceAcrossShapes) {
  // Edge cases on every axis: n below/at/off the 16-wide panel (a last
  // panel of 8 valid columns or fewer behind a full one shares its pass),
  // odd k (exercises the zero-padded last pair), k = 1, single row, tall m.
  const QShape shapes[] = {{1, 16, 2},  {4, 16, 8},  {5, 33, 7},  {3, 7, 5},
                           {8, 48, 128}, {2, 16, 1}, {7, 1, 9},   {6, 31, 64},
                           {9, 24, 11},  {5, 25, 6},  {6, 40, 13}, {3, 131, 128}};
  for (const KernelLevel level : runnable_levels()) {
    const kernels::QmvmKernel kern = kernels::select_qmvm_kernel(level);
    for (const QShape& s : shapes) {
      const std::int64_t lda = s.k + (s.k & 1);
      const auto a = random_codes(s.m, s.k, 7 + static_cast<std::uint64_t>(s.m * s.k));
      const auto b = random_levels(s.k, s.n, 256, 11 + static_cast<std::uint64_t>(s.n));
      std::vector<std::uint8_t> packed(kernels::packed_levels_bytes(s.k, s.n));
      kernels::pack_levels(b.data(), s.k, s.n, s.n, packed.data());

      std::vector<std::int32_t> got(static_cast<std::size_t>(s.m * s.n), -1);
      std::vector<std::int32_t> want(static_cast<std::size_t>(s.m * s.n), 0);
      kern(s.m, s.n, s.k, a.data(), lda, packed.data(), got.data(), s.n);
      naive_qmvm(s.m, s.n, s.k, a.data(), lda, b.data(), want.data());
      EXPECT_EQ(got, want) << "level=" << static_cast<int>(level) << " m=" << s.m << " n=" << s.n
                           << " k=" << s.k;
    }
  }
}

TEST(QuantKernel, ScalarAndAvx2AreBitIdentical) {
  if (!kernels::avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
  const QShape shapes[] = {{5, 33, 7}, {8, 48, 128}, {13, 17, 31}};
  for (const QShape& s : shapes) {
    const std::int64_t lda = s.k + (s.k & 1);
    const auto a = random_codes(s.m, s.k, 3);
    const auto b = random_levels(s.k, s.n, 256, 5);
    std::vector<std::uint8_t> packed(kernels::packed_levels_bytes(s.k, s.n));
    kernels::pack_levels(b.data(), s.k, s.n, s.n, packed.data());

    std::vector<std::int32_t> scalar_c(static_cast<std::size_t>(s.m * s.n), 0);
    std::vector<std::int32_t> avx2_c(static_cast<std::size_t>(s.m * s.n), 0);
    kernels::qmvm_scalar(s.m, s.n, s.k, a.data(), lda, packed.data(), scalar_c.data(), s.n);
    kernels::qmvm_avx2(s.m, s.n, s.k, a.data(), lda, packed.data(), avx2_c.data(), s.n);
    // Integer math: EXACT equality, not a tolerance.
    EXPECT_EQ(scalar_c, avx2_c) << "m=" << s.m << " n=" << s.n << " k=" << s.k;
  }
}

TEST(QuantKernel, ExtremeOperandValuesStayExact) {
  // All-saturated codes against all-max levels: the largest accumulator the
  // packed format can see at this k; checks the widening path never
  // saturates (the _mm256_maddubs_epi16 trap this backend avoids).
  const std::int64_t m = 3, n = 17, k = 128;
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
  std::vector<std::uint8_t> b(static_cast<std::size_t>(k * n), 255);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      a[static_cast<std::size_t>(i * k + p)] = (i % 2 == 0) ? std::int8_t{127} : std::int8_t{-127};
    }
  }
  std::vector<std::uint8_t> packed(kernels::packed_levels_bytes(k, n));
  kernels::pack_levels(b.data(), k, n, n, packed.data());
  for (const KernelLevel level : runnable_levels()) {
    std::vector<std::int32_t> c(static_cast<std::size_t>(m * n), 0);
    kernels::select_qmvm_kernel(level)(m, n, k, a.data(), k, packed.data(), c.data(), n);
    for (std::int64_t i = 0; i < m; ++i) {
      const std::int32_t want = (i % 2 == 0 ? 1 : -1) * 127 * 255 * static_cast<std::int32_t>(k);
      for (std::int64_t j = 0; j < n; ++j) {
        ASSERT_EQ(c[static_cast<std::size_t>(i * n + j)], want);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// QuantAdc

TEST(QuantAdc, ColumnDeltaSizing) {
  AdcConfig adc;
  adc.bits = 8;  // qmax = 127
  adc.range_factor = 1.0;
  EXPECT_EQ(qinfer::adc_column_delta(adc, 12700), 100);
  adc.range_factor = 0.125;
  // ceil(12700 * 0.125 / 127) = ceil(12.5) = 13.
  EXPECT_EQ(qinfer::adc_column_delta(adc, 12700), 13);
  // Small columns floor at delta = 1 (never zero).
  EXPECT_EQ(qinfer::adc_column_delta(adc, 0), 1);
  EXPECT_EQ(qinfer::adc_column_delta(adc, 3), 1);
  // Ideal readout is the identity transfer regardless of the bound.
  adc.bits = 0;
  EXPECT_TRUE(adc.ideal());
  EXPECT_EQ(qinfer::adc_column_delta(adc, 1'000'000), 1);
}

TEST(QuantAdc, DigitizeRoundsHalfAwayAndClips) {
  const std::int32_t delta = 10, qmax = 7;
  EXPECT_EQ(qinfer::adc_digitize(0, delta, qmax), 0);
  EXPECT_EQ(qinfer::adc_digitize(4, delta, qmax), 0);    // below half step
  EXPECT_EQ(qinfer::adc_digitize(5, delta, qmax), 10);   // exact midpoint -> away from zero
  EXPECT_EQ(qinfer::adc_digitize(-5, delta, qmax), -10); // symmetric
  EXPECT_EQ(qinfer::adc_digitize(14, delta, qmax), 10);
  EXPECT_EQ(qinfer::adc_digitize(15, delta, qmax), 20);
  EXPECT_EQ(qinfer::adc_digitize(74, delta, qmax), 70);  // code 7 = qmax, unclipped
  EXPECT_EQ(qinfer::adc_digitize(75, delta, qmax), 70);  // would round to 8 -> clipped
  EXPECT_EQ(qinfer::adc_digitize(100000, delta, qmax), 70);
  EXPECT_EQ(qinfer::adc_digitize(-100000, delta, qmax), -70);
}

TEST(QuantAdc, ConfigValidation) {
  AdcConfig adc;
  adc.bits = 1;
  EXPECT_THROW(adc.validate(), ContractViolation);
  adc.bits = 25;
  EXPECT_THROW(adc.validate(), ContractViolation);
  adc.bits = 8;
  adc.range_factor = 0.0;
  EXPECT_THROW(adc.validate(), ContractViolation);
  adc.range_factor = 1.5;
  EXPECT_THROW(adc.validate(), ContractViolation);
  adc.range_factor = 1.0;
  EXPECT_NO_THROW(adc.validate());
  adc.bits = 0;
  EXPECT_NO_THROW(adc.validate());
}

// ---------------------------------------------------------------------------
// QuantQuantizer (satellite: level_index/level_value round-trip property)

TEST(QuantQuantizer, LevelRoundTripAcrossLevelCounts) {
  const ConductanceRange range{};  // default device range
  for (const int levels : {2, 3, 16, 255, 256}) {
    const ConductanceQuantizer q(range, levels);
    for (int i = 0; i < levels; ++i) {
      EXPECT_EQ(q.level_index(q.level_value(i)), i) << "levels=" << levels << " i=" << i;
      // quantize() is idempotent on grid points.
      EXPECT_EQ(q.quantize(q.level_value(i)), q.level_value(i)) << "levels=" << levels;
    }
    // Out-of-range conductances clamp to the end levels.
    EXPECT_EQ(q.level_index(range.g_min - 1.0f), 0);
    EXPECT_EQ(q.level_index(range.g_max + 1.0f), levels - 1);
  }
}

TEST(QuantQuantizer, MidpointTieBreaksUpward) {
  // g in [0, 15] with 16 levels -> step exactly 1.0f, so every midpoint
  // i + 0.5 is exactly representable and the tie-break is observable:
  // lround rounds half away from zero, i.e. to level i + 1.
  const ConductanceRange range{.g_min = 0.0f, .g_max = 15.0f};
  const ConductanceQuantizer q(range, 16);
  for (int i = 0; i < 15; ++i) {
    EXPECT_EQ(q.level_index(static_cast<float>(i) + 0.5f), i + 1) << "i=" << i;
    // Just below the midpoint still snaps down.
    EXPECT_EQ(q.level_index(static_cast<float>(i) + 0.4375f), i) << "i=" << i;
  }
}

// ---------------------------------------------------------------------------
// QuantEngine

QuantizedEngineConfig small_config(int levels = 16, int adc_bits = 0) {
  QuantizedEngineConfig config;
  config.tile_rows = 8;
  config.tile_cols = 8;  // 4 outputs per tile -> multi-tile in both dims
  config.levels = levels;
  config.adc.bits = adc_bits;
  return config;
}

/// y[batch, out] = x[batch, in] * W_eff^T with W_eff the float oracle's
/// read_back() — the analog-limit reference for the quantized mvm.
std::vector<float> float_oracle_mvm(const Tensor& w, std::int64_t tile_rows,
                                    std::int64_t tile_cols, const Tensor& x) {
  CrossbarEngineConfig fc;
  fc.tile_rows = tile_rows;
  fc.tile_cols = tile_cols;
  const Tensor w_eff = CrossbarEngine(w, fc).read_back();
  const std::int64_t batch = x.dim(0), out = w.dim(0), in = w.dim(1);
  std::vector<float> y(static_cast<std::size_t>(batch * out), 0.0f);
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t o = 0; o < out; ++o) {
      double acc = 0.0;
      for (std::int64_t i = 0; i < in; ++i) acc += double{x.at(b, i)} * w_eff.at(o, i);
      y[static_cast<std::size_t>(b * out + o)] = static_cast<float>(acc);
    }
  }
  return y;
}

TEST(QuantEngine, ConfigValidation) {
  QuantizedEngineConfig config;
  config.tile_rows = 7;  // odd wordline count breaks the k-pair contract
  EXPECT_THROW(config.validate(), ContractViolation);
  config.tile_rows = 128;
  config.tile_cols = 5;
  EXPECT_THROW(config.validate(), ContractViolation);
  config.tile_cols = 128;
  config.levels = 1;
  EXPECT_THROW(config.validate(), ContractViolation);
  config.levels = 257;
  EXPECT_THROW(config.validate(), ContractViolation);
  config.levels = 256;
  EXPECT_NO_THROW(config.validate());
}

TEST(QuantEngine, ReadBackMatchesFloatEngineAtSameLevels) {
  // The float engine reads back analog cells; snapping each of its
  // differential cells to the same L-level grid must reproduce the quantized
  // engine's fault-free read_back to float round-off.
  const Tensor w = random_tensor(Shape{10, 13}, 21);
  const QuantizedCrossbarEngine qe(w, small_config(/*levels=*/16));
  CrossbarEngineConfig fc;
  fc.tile_rows = 8;
  fc.tile_cols = 8;
  const CrossbarEngine fe(w, fc);
  const DifferentialMapper mapper(fc.range, qe.w_max());
  const ConductanceQuantizer quant(fc.range, 16);
  const Tensor qw = qe.read_back();
  const Tensor fw = fe.read_back();
  ASSERT_EQ(qw.numel(), fw.numel());
  for (std::int64_t i = 0; i < qw.numel(); ++i) {
    const CellPair cells = mapper.to_cells(fw[i]);
    const float snapped =
        mapper.to_weight(CellPair{quant.quantize(cells.g_pos), quant.quantize(cells.g_neg)});
    ASSERT_NEAR(qw[i], snapped, 1e-5f) << "i=" << i;
  }
}

TEST(QuantEngine, MvmApproachesFloatEngineAtHighLevelsIdealAdc) {
  // 256 levels + ideal ADC leave activation int8 noise (~1/127 relative per
  // term on O(1) inputs) and at most half a level step per weight between
  // the quantized datapath and the analog read-back.
  const Tensor w = random_tensor(Shape{24, 40}, 31, 0.5f);
  const QuantizedCrossbarEngine qe(w, small_config(/*levels=*/256));

  const std::int64_t batch = 5;
  const Tensor x = random_tensor(Shape{batch, 40}, 17);
  std::vector<float> yq(static_cast<std::size_t>(batch * 24));
  qe.mvm_batch(x.data(), batch, yq.data());
  const std::vector<float> yf = float_oracle_mvm(w, 8, 8, x);
  for (std::size_t i = 0; i < yq.size(); ++i) {
    ASSERT_NEAR(yq[i], yf[i], 0.08f) << "i=" << i;
  }
}

TEST(QuantEngine, PartialRowTilesAgreeAcrossTilingsAndPanels) {
  // Regression: the packed-B panel stride is a function of k, so a tile must
  // be packed with the k the kernel is driven with (valid rows, not
  // tile_rows). The bug this pins down only shows when a PARTIAL row tile
  // meets MULTIPLE column panels (tile_cols > 2 * kQNR): every panel after
  // the first was read at the wrong stride. Same weights through different
  // tilings must produce bit-identical outputs (all-integer datapath), and
  // both must approximate the float read-back at 256 levels + ideal ADC.
  for (const std::int64_t in : {std::int64_t{12}, std::int64_t{13}}) {  // even + odd valid tail
    const Tensor w = random_tensor(Shape{30, in}, 77, 0.5f);
    QuantizedEngineConfig partial;  // rt=1 holds only in-8 driven rows
    partial.tile_rows = 8;
    partial.tile_cols = 64;  // 4 column panels of kQNR=16
    partial.levels = 256;
    partial.adc.bits = 0;
    QuantizedEngineConfig single = partial;  // one row tile, also partially filled
    single.tile_rows = 14;
    const QuantizedCrossbarEngine ep(w, partial);
    const QuantizedCrossbarEngine es(w, single);

    const std::int64_t batch = 4;
    const Tensor x = random_tensor(Shape{batch, in}, 19);
    std::vector<float> yp(static_cast<std::size_t>(batch * 30));
    std::vector<float> ys(static_cast<std::size_t>(batch * 30));
    ep.mvm_batch(x.data(), batch, yp.data());
    es.mvm_batch(x.data(), batch, ys.data());
    EXPECT_EQ(std::memcmp(yp.data(), ys.data(), yp.size() * sizeof(float)), 0) << "in=" << in;

    const std::vector<float> yf = float_oracle_mvm(w, 8, 64, x);
    for (std::size_t i = 0; i < yp.size(); ++i) {
      ASSERT_NEAR(yp[i], yf[i], 0.08f) << "in=" << in << " i=" << i;
    }
  }
}

TEST(QuantEngine, LevelDomainFaultSemantics) {
  // Two weights, one tile. Weight 0 = +w_max (lv+ = L-1, lv- = 0),
  // weight 1 = 0 (both cells level 0).
  Tensor w(Shape{2, 1});
  w[0] = 1.0f;
  w[1] = 0.0f;
  QuantizedEngineConfig config = small_config(/*levels=*/16);
  QuantizedCrossbarEngine engine(w, config);

  // Stuck-off on weight 0's positive cell (model cell 0): +1 -> 0.
  engine.apply_defect_map(
      DefectMap::from_faults(4, {CellFault{0, FaultType::kStuckOff}}));
  EXPECT_EQ(engine.stuck_cells(), 1);
  Tensor rb = engine.read_back();
  EXPECT_NEAR(rb[0], 0.0f, 1e-6f);
  EXPECT_NEAR(rb[1], 0.0f, 1e-6f);

  // clear_defects restores the PROGRAMMED levels (non-destructive faults).
  engine.clear_defects();
  EXPECT_EQ(engine.stuck_cells(), 0);
  rb = engine.read_back();
  EXPECT_NEAR(rb[0], 1.0f, 1e-6f);

  // Stuck-on on weight 1's negative cell (model cell 3): 0 -> -w_max.
  engine.apply_defect_map(
      DefectMap::from_faults(4, {CellFault{3, FaultType::kStuckOn}}));
  rb = engine.read_back();
  EXPECT_NEAR(rb[0], 1.0f, 1e-6f);
  EXPECT_NEAR(rb[1], -1.0f, 1e-6f);

  // A second map LAYERS onto the first (the aging contract: apply the grown
  // map without clearing): cell 3 stays stuck-on, cell 2 joins it. Weight 1
  // now has BOTH cells pinned at L-1 -> differential readout 0.
  engine.apply_defect_map(
      DefectMap::from_faults(4, {CellFault{2, FaultType::kStuckOn}}));
  rb = engine.read_back();
  EXPECT_NEAR(rb[1], 0.0f, 1e-6f);
  EXPECT_EQ(engine.stuck_cells(), 2);
}

TEST(QuantEngine, FaultsFlowThroughMvm) {
  // A stuck cell must change the compute, not just read_back: pin weight 0
  // of a 1-input engine to +w_max and check y tracks the faulted matrix.
  Tensor w(Shape{2, 2});
  w[0] = 0.25f;
  w[1] = -0.5f;
  w[2] = 0.75f;
  w[3] = 0.0f;
  QuantizedEngineConfig config = small_config(/*levels=*/256);
  QuantizedCrossbarEngine engine(w, config);
  engine.apply_defect_map(
      DefectMap::from_faults(8, {CellFault{0, FaultType::kStuckOn}}));
  const Tensor faulted = engine.read_back();

  const float x[2] = {0.9f, -0.3f};
  float y[2] = {0.0f, 0.0f};
  engine.mvm_batch(x, 1, y);
  for (int o = 0; o < 2; ++o) {
    const float want = faulted[o * 2] * x[0] + faulted[o * 2 + 1] * x[1];
    EXPECT_NEAR(y[o], want, 0.02f) << "o=" << o;
  }
  // And the faulted output differs from the clean one for the hit row.
  engine.clear_defects();
  float y_clean[2];
  engine.mvm_batch(x, 1, y_clean);
  EXPECT_GT(std::abs(y[0] - y_clean[0]), 0.3f);
  EXPECT_NEAR(y[1], y_clean[1], 1e-6f);
}

TEST(QuantEngine, DefectsAreDeterministicPerDevice) {
  // (master_seed, device_index) names one physical die: the per-tile stream
  // reproduces it exactly and a different device index draws another.
  const Tensor w = random_tensor(Shape{20, 24}, 77);
  const StuckAtFaultModel model(0.05, 0.5);
  QuantizedCrossbarEngine a(w, small_config());
  QuantizedCrossbarEngine b(w, small_config());
  QuantizedCrossbarEngine c(w, small_config());
  a.apply_device_defects(model, /*master_seed=*/123, /*device_index=*/4);
  b.apply_device_defects(model, /*master_seed=*/123, /*device_index=*/4);
  c.apply_device_defects(model, /*master_seed=*/123, /*device_index=*/5);
  ASSERT_GT(a.stuck_cells(), 0);
  EXPECT_EQ(a.stuck_cells(), b.stuck_cells());
  const Tensor ra = a.read_back();
  const Tensor rb = b.read_back();
  EXPECT_EQ(std::memcmp(ra.data(), rb.data(), static_cast<std::size_t>(ra.numel()) * sizeof(float)),
            0);
  EXPECT_FALSE(ra.allclose(c.read_back(), 0.0f, 0.0f));
}

TEST(QuantEngine, DeviceDefectStreamMatchesFloatEngine) {
  // The die that (master_seed, device_index) names, exported as a
  // weight-indexed map, is the same die on the float oracle and on a fresh
  // quantized engine: identical stuck-cell counts, a bit-identical replay,
  // and oracle weights within half a level step (programming round-off).
  const Tensor w = random_tensor(Shape{20, 24}, 77);  // whole 8 x 8 tiles: no padding cells
  QuantizedCrossbarEngine qe(w, small_config(/*levels=*/16));
  qe.apply_device_defects(StuckAtFaultModel(0.05, 0.5), /*master_seed=*/123,
                          /*device_index=*/4);
  ASSERT_GT(qe.stuck_cells(), 0);
  const DefectMap die = qe.defect_map();
  EXPECT_EQ(die.fault_count(), qe.stuck_cells());

  CrossbarEngineConfig fc;
  fc.tile_rows = 8;
  fc.tile_cols = 8;
  CrossbarEngine fe(w, fc);
  fe.apply_defect_map(die);
  EXPECT_EQ(qe.stuck_cells(), fe.stuck_cells());

  QuantizedCrossbarEngine replay(w, small_config(/*levels=*/16));
  replay.apply_defect_map(die);
  const Tensor qw = qe.read_back();
  const Tensor rw = replay.read_back();
  EXPECT_EQ(std::memcmp(qw.data(), rw.data(), static_cast<std::size_t>(qw.numel()) * sizeof(float)),
            0);

  const Tensor fw = fe.read_back();
  const float half_step = 0.5f * qe.w_max() / 15.0f;
  for (std::int64_t i = 0; i < qw.numel(); ++i) {
    ASSERT_LE(std::fabs(qw[i] - fw[i]), half_step + 1e-6f * qe.w_max()) << "i=" << i;
  }
}

TEST(QuantEngine, AdcClippingCoarsensOutputs) {
  // Full-scale weights + all-positive drive saturate a coarse converter:
  // the 3-bit output must clip strictly below the ideal readout.
  Tensor w(Shape{4, 32});
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = 1.0f;
  Tensor x(Shape{1, 32});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = 1.0f;

  QuantizedEngineConfig ideal = small_config(/*levels=*/16, /*adc_bits=*/0);
  QuantizedEngineConfig coarse = small_config(/*levels=*/16, /*adc_bits=*/3);
  coarse.adc.range_factor = 0.125;
  const QuantizedCrossbarEngine ie(w, ideal);
  const QuantizedCrossbarEngine ce(w, coarse);
  std::vector<float> yi(4), yc(4);
  ie.mvm_batch(x.data(), 1, yi.data());
  ce.mvm_batch(x.data(), 1, yc.data());
  for (int o = 0; o < 4; ++o) {
    EXPECT_NEAR(yi[o], 32.0f, 0.3f) << "o=" << o;  // ideal: sum of 32 ones
    EXPECT_LT(yc[o], 0.5f * yi[o]) << "o=" << o;   // coarse ADC clipped hard
  }
}

TEST(QuantEngine, BitIdenticalAcrossThreadsAndKernels) {
  const Tensor w = random_tensor(Shape{30, 50}, 13);
  QuantizedEngineConfig config = small_config(/*levels=*/16, /*adc_bits=*/8);
  QuantizedCrossbarEngine engine(w, config);
  engine.apply_device_defects(StuckAtFaultModel(0.02, 0.5), 9, 0);
  const std::int64_t batch = 7;
  const Tensor x = random_tensor(Shape{batch, 50}, 19);
  const std::size_t n = static_cast<std::size_t>(batch * 30);

  std::vector<float> baseline(n);
  {
    ThreadGuard threads(1);
    LevelGuard level(KernelLevel::kScalar);
    engine.mvm_batch(x.data(), batch, baseline.data());
  }
  for (const KernelLevel level : runnable_levels()) {
    for (const int threads : {1, 2, 5}) {
      ThreadGuard tg(threads);
      LevelGuard lg(level);
      std::vector<float> y(n, -1.0f);
      engine.mvm_batch(x.data(), batch, y.data());
      // The quantized determinism contract is EXACT equality across both
      // thread count and kernel level — stronger than the float path.
      EXPECT_EQ(std::memcmp(y.data(), baseline.data(), n * sizeof(float)), 0)
          << "threads=" << threads << " level=" << static_cast<int>(level);
    }
  }
}

TEST(QuantEngine, ZeroInputShortCircuitsToZero) {
  const Tensor w = random_tensor(Shape{6, 10}, 2);
  const QuantizedCrossbarEngine engine(w, small_config());
  std::vector<float> x(20, 0.0f), y(12, 42.0f);
  engine.mvm_batch(x.data(), 2, y.data());
  for (const float v : y) EXPECT_EQ(v, 0.0f);
}

}  // namespace
}  // namespace ftpim
