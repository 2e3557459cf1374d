// Float read-back oracle tests, its in-distribution equivalence with the
// weight-space injector, plus the seeded three-way differential test that
// pushes one DefectMap through every fault datapath: the weight-space
// injector, the float CrossbarEngine, and the int8 QuantizedCrossbarEngine.
// The RNG injector's own per-cell stream, replayed as a DefectMap, pins its
// read-back to apply_defect_map_to_model's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/check.hpp"
#include "src/models/mlp.hpp"
#include "src/nn/linear.hpp"
#include "src/reram/crossbar_engine.hpp"
#include "src/reram/defect_map.hpp"
#include "src/reram/fault_injector.hpp"
#include "src/reram/qinfer/quantized_engine.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

using qinfer::QuantizedCrossbarEngine;
using qinfer::QuantizedEngineConfig;
using testing::random_tensor;

CrossbarEngineConfig small_tiles() {
  CrossbarEngineConfig cfg;
  cfg.tile_rows = 16;
  cfg.tile_cols = 8;
  return cfg;
}

QuantizedEngineConfig small_quantized_tiles(int levels) {
  QuantizedEngineConfig cfg;
  cfg.tile_rows = small_tiles().tile_rows;
  cfg.tile_cols = small_tiles().tile_cols;
  cfg.levels = levels;
  return cfg;
}

TEST(CrossbarEngine, Validation) {
  const Tensor w = random_tensor(Shape{4, 4}, 1);
  CrossbarEngineConfig odd;
  odd.tile_cols = 7;
  EXPECT_THROW(CrossbarEngine(w, odd), std::invalid_argument);
  EXPECT_THROW(CrossbarEngine(Tensor(Shape{4}), CrossbarEngineConfig{}), std::invalid_argument);
}

TEST(CrossbarEngine, TileCountCoversMatrix) {
  const Tensor w = random_tensor(Shape{10, 40}, 2);
  const CrossbarEngine engine(w, small_tiles());
  // rows: ceil(40/16)=3 row tiles; cols: 8/2=4 outs/tile -> ceil(10/4)=3.
  EXPECT_EQ(engine.tile_count(), 9);
  EXPECT_EQ(engine.total_cells(), 9 * 16 * 8);
}

TEST(CrossbarEngine, ReadBackMatchesProgrammedWeights) {
  const Tensor w = random_tensor(Shape{6, 20}, 3, 0.5f);
  const CrossbarEngine engine(w, small_tiles());
  EXPECT_TRUE(engine.read_back().allclose(w, 1e-5f, 1e-4f));
}

TEST(CrossbarEngine, StuckCellsPinTheReadoutAndMapsLayer) {
  // Weight 0 = +w_max (G+ = g_max, G- = g_min), weight 1 = 0 (both g_min).
  Tensor w(Shape{2, 1});
  w[0] = 1.0f;
  w[1] = 0.0f;
  CrossbarEngine engine(w, small_tiles());

  // Stuck-off on weight 0's positive cell (model cell 0): +1 -> 0.
  engine.apply_defect_map(DefectMap::from_faults(4, {CellFault{0, FaultType::kStuckOff}}));
  EXPECT_EQ(engine.stuck_cells(), 1);
  Tensor rb = engine.read_back();
  EXPECT_EQ(rb[0], 0.0f);
  EXPECT_EQ(rb[1], 0.0f);

  // A second map layers onto the first: stuck-on on weight 1's negative cell
  // (model cell 3) gives 0 -> -w_max while weight 0 stays pinned.
  engine.apply_defect_map(DefectMap::from_faults(4, {CellFault{3, FaultType::kStuckOn}}));
  EXPECT_EQ(engine.stuck_cells(), 2);
  rb = engine.read_back();
  EXPECT_EQ(rb[0], 0.0f);
  EXPECT_NEAR(rb[1], -1.0f, 1e-6f);
}

TEST(CrossbarEngine, ClearDefectsRestoresIdealWeights) {
  const Tensor w = random_tensor(Shape{8, 16}, 9, 0.5f);
  CrossbarEngine engine(w, small_tiles());
  const Tensor before = engine.read_back();
  Rng rng(1);
  engine.apply_defect_map(DefectMap::sample(2 * 8 * 16, StuckAtFaultModel(0.2), rng));
  ASSERT_GT(engine.stuck_cells(), 0);
  ASSERT_NE(std::memcmp(engine.read_back().data(), before.data(),
                        static_cast<std::size_t>(before.numel()) * sizeof(float)),
            0);
  engine.clear_defects();
  EXPECT_EQ(engine.stuck_cells(), 0);
  // Faults never overwrite the programmed conductance, so the die comes
  // back bit for bit.
  EXPECT_EQ(std::memcmp(engine.read_back().data(), before.data(),
                        static_cast<std::size_t>(before.numel()) * sizeof(float)),
            0);
}

TEST(CrossbarEngine, EquivalenceWithWeightSpaceInjectorInDistribution) {
  // The fast path (apply_stuck_at_faults) and the cell-level oracle implement
  // the same fault model; at equal rates, over independently drawn dies,
  // their weight distortions must agree statistically: compare mean absolute
  // weight change over many draws.
  const std::int64_t out = 16, in = 64;
  const Tensor w = random_tensor(Shape{out, in}, 10, 0.3f);
  const StuckAtFaultModel model(0.05);
  const int reps = 12;

  double engine_mad = 0.0;
  for (int r = 0; r < reps; ++r) {
    CrossbarEngine engine(w, small_tiles());
    Rng rng(derive_seed(1234, static_cast<std::uint64_t>(r)));
    engine.apply_defect_map(DefectMap::sample(2 * out * in, model, rng));
    const Tensor w_eff = engine.read_back();
    for (std::int64_t i = 0; i < w.numel(); ++i) {
      engine_mad += std::fabs(w_eff[i] - w[i]);
    }
  }
  engine_mad /= static_cast<double>(reps * w.numel());

  double fast_mad = 0.0;
  for (int r = 0; r < reps; ++r) {
    Tensor w_fast;
    Rng rng(derive_seed(5678, static_cast<std::uint64_t>(r)));
    apply_stuck_at_faults(w, w_fast, model, {}, rng);
    for (std::int64_t i = 0; i < w.numel(); ++i) {
      fast_mad += std::fabs(w_fast[i] - w[i]);
    }
  }
  fast_mad /= static_cast<double>(reps * w.numel());

  // Same model, same rate -> same expected distortion (within Monte-Carlo
  // noise; 25% relative tolerance at these sample sizes).
  EXPECT_NEAR(engine_mad, fast_mad, 0.25 * std::max(engine_mad, fast_mad));
}

// --- One DefectMap through every fault datapath -----------------------------

TEST(FaultDatapaths, WrongCellCountIsRejected) {
  const std::int64_t out = 6, in = 10;
  const Tensor w = random_tensor(Shape{out, in}, 12);
  const DefectMap short_map = DefectMap::empty(2 * out * in - 2);
  CrossbarEngine fe(w, small_tiles());
  EXPECT_THROW(fe.apply_defect_map(short_map), ContractViolation);
  QuantizedCrossbarEngine qe(w, small_quantized_tiles(16));
  EXPECT_THROW(qe.apply_defect_map(short_map), ContractViolation);
  Rng init(13);
  Linear layer(in, out, init, /*with_bias=*/false);
  EXPECT_THROW((void)apply_defect_map_to_model(layer, short_map, {}), ContractViolation);
}

TEST(FaultDatapaths, ThreeWayDifferentialOnSeededMaps) {
  // One DefectMap over the 2 * out * in model cells drives the injector on a
  // Linear, the float oracle, and the int8 engine. Every shape leaves
  // partial row and column tiles (16 x 8 tiles, 4 outputs per tile).
  struct Dims {
    std::int64_t out, in;
  };
  const CrossbarEngineConfig fc = small_tiles();
  for (const Dims d : {Dims{10, 37}, Dims{7, 20}, Dims{13, 9}}) {
    for (const double p_sa : {0.01, 0.05, 0.2}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(::testing::Message() << d.out << "x" << d.in << " p_sa=" << p_sa
                                          << " seed=" << seed);
        Rng init(seed);
        Linear layer(d.in, d.out, init, /*with_bias=*/false);
        const Tensor w = layer.weight().value;
        const float w_max = w.abs_max();
        Rng map_rng(derive_seed(seed, 0xd1ff));
        const DefectMap map =
            DefectMap::sample(2 * d.out * d.in, StuckAtFaultModel(p_sa), map_rng);
        ASSERT_GT(map.fault_count(), 0);

        // Apply_Fault in weight space; the layer is reset to clean weights
        // first because map application is defined against them.
        const auto injected = [&](int levels) {
          layer.weight().value = w;
          InjectorConfig ic;
          ic.range = fc.range;
          ic.quant_levels = levels;
          (void)apply_defect_map_to_model(layer, map, ic);
          return layer.weight().value;
        };

        CrossbarEngine fe(w, fc);
        fe.apply_defect_map(map);
        const Tensor float_rb = fe.read_back();
        const Tensor analog = injected(0);
        for (std::int64_t i = 0; i < w.numel(); ++i) {
          ASSERT_NEAR(analog[i], float_rb[i], 1e-5f * w_max) << "i=" << i;
        }

        for (const int levels : {16, 256}) {
          QuantizedCrossbarEngine qe(w, small_quantized_tiles(levels));
          qe.apply_defect_map(map);
          const Tensor quant_rb = qe.read_back();
          const Tensor snapped = injected(levels);
          EXPECT_EQ(std::memcmp(snapped.data(), quant_rb.data(),
                                static_cast<std::size_t>(w.numel()) * sizeof(float)),
                    0)
              << "L=" << levels;
          // Stuck cells sit on exact levels and one cell of a healthy pair
          // rests at g_min, so only one cell per weight carries the
          // programming round-off of at most half a level step.
          const float half_step = 0.5f * w_max / static_cast<float>(levels - 1);
          for (std::int64_t i = 0; i < w.numel(); ++i) {
            ASSERT_LE(std::fabs(quant_rb[i] - float_rb[i]), half_step + 1e-6f * w_max)
                << "L=" << levels << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(FaultDatapaths, RngInjectorStreamReplaysThroughDefectMap) {
  // Apply_Fault draws two StuckAtFaultModel::sample values per weight,
  // positive cell first, in crossbar_params order. Replaying that stream
  // into a DefectMap must give apply_defect_map_to_model exactly the bits
  // and stats of inject_into_model with the same seed, at every quant_levels
  // and for a tensor whose w_max falls back to 1 (all zero).
  for (const bool zero_tensor : {false, true}) {
    for (const int levels : {0, 16, 256}) {
      for (const double p_sa : {0.01, 0.2}) {
        SCOPED_TRACE(::testing::Message() << "zero_tensor=" << zero_tensor << " L=" << levels
                                          << " p_sa=" << p_sa);
        auto net = make_mlp({12, 20, 6}, 41);
        if (zero_tensor) crossbar_params(*net)[1]->value.zero();
        const StuckAtFaultModel model(p_sa);
        InjectorConfig ic;
        ic.quant_levels = levels;
        const std::uint64_t seed = derive_seed(0x5eed, static_cast<std::uint64_t>(levels));

        const std::int64_t cells = crossbar_cell_count(*net);
        Rng replay(seed);
        std::vector<CellFault> faults;
        for (std::int64_t c = 0; c < cells; ++c) {
          const FaultType f = model.sample(replay);
          if (f != FaultType::kNone) faults.push_back(CellFault{c, f});
        }
        const DefectMap map = DefectMap::from_faults(cells, std::move(faults));
        ASSERT_GT(map.fault_count(), 0);

        const std::unique_ptr<Module> by_rng = net->clone();
        Rng rng(seed);
        const InjectionStats rng_stats = inject_into_model(*by_rng, model, ic, rng);
        const std::unique_ptr<Module> by_map = net->clone();
        const InjectionStats map_stats = apply_defect_map_to_model(*by_map, map, ic);

        EXPECT_EQ(rng_stats.cells, map_stats.cells);
        EXPECT_EQ(rng_stats.faulted_cells, map_stats.faulted_cells);
        EXPECT_EQ(rng_stats.affected_weights, map_stats.affected_weights);
        EXPECT_EQ(map_stats.faulted_cells, map.fault_count());
        const std::vector<Param*> a = crossbar_params(*by_rng);
        const std::vector<Param*> b = crossbar_params(*by_map);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t k = 0; k < a.size(); ++k) {
          EXPECT_EQ(std::memcmp(a[k]->value.data(), b[k]->value.data(),
                                static_cast<std::size_t>(a[k]->value.numel()) * sizeof(float)),
                    0)
              << a[k]->name;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ftpim
