// Model-level quantized deployment:
//   * QuantDeploy — hook install/uninstall lifecycle (dtor, clone-drop,
//     training-path bypass), Linear/Conv2d eval forwards routed through the
//     engines, non-finite activations that poison only the outputs they
//     reach, and the model-cell-space defect map plumbing (each engine's
//     cell range is its crossbar_params weight's);
//   * QuantConvLowering — the engine's per-image int8 conv, and MvmHook's
//     default staging for hooks that implement only mvm_batch, against the
//     manual lowering, bit for bit with equal ABFT tallies, over a geometry
//     x ABFT x ADC x die x threads x kernel grid;
//   * QuantEval   — evaluate_under_defects on the kQuantized engine:
//     thread-count bit-identity and the zero-fault-rate accuracy criterion
//     (within 1% of the float path at >= 16 levels / 8-bit ADC);
//   * QuantServe  — ReplicaPool quantized lifecycle: clean replica weights,
//     deterministic per-replica maps, aging WITHOUT a re-clone, and repair.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/evaluator.hpp"
#include "src/core/trainer.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/mlp.hpp"
#include "src/models/resnet.hpp"
#include "src/models/small_cnn.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/pooling.hpp"
#include "src/nn/sequential.hpp"
#include "src/reram/qinfer/deploy.hpp"
#include "src/serve/replica_pool.hpp"
#include "src/tensor/im2col.hpp"
#include "src/tensor/kernels/dispatch.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

using kernels::KernelLevel;
using qinfer::QuantizedEngineConfig;
using testing::random_tensor;
using testing::ThreadGuard;

/// Pins the dispatch level for a scope; restores the ambient default on exit.
struct LevelGuard {
  explicit LevelGuard(KernelLevel level) { kernels::set_kernel_level(level); }
  ~LevelGuard() { kernels::clear_kernel_level_override(); }
};

std::vector<KernelLevel> runnable_levels() {
  std::vector<KernelLevel> levels = {KernelLevel::kScalar};
  if (kernels::avx2_available()) levels.push_back(KernelLevel::kAvx2);
  return levels;
}

/// 8x8 4-class synthetic vision set (matches the integration-test scale).
std::unique_ptr<InMemoryDataset> tiny_data(std::int64_t samples, std::uint64_t stream) {
  SynthVisionConfig sv;
  sv.num_classes = 4;
  sv.image_size = 8;
  sv.samples = samples;
  sv.seed = 41;
  return make_synthvision(sv, stream);
}

/// Flatten + 2-layer MLP — the smallest image classifier the quantized
/// deployment can hook (Linear wants rank-2 input).
std::unique_ptr<Sequential> make_flat_mlp(std::uint64_t seed) {
  Rng rng(seed);
  auto net = std::make_unique<Sequential>();
  net->emplace<Flatten>();
  net->emplace<Linear>(3 * 8 * 8, 32, rng, /*with_bias=*/true);
  net->emplace<ReLU>();
  net->emplace<Linear>(32, 4, rng, /*with_bias=*/true);
  return net;
}

QuantizedEngineConfig deploy_config(int levels = 16, int adc_bits = 8) {
  QuantizedEngineConfig config;
  config.tile_rows = 64;
  config.tile_cols = 64;
  config.levels = levels;
  config.adc.bits = adc_bits;
  return config;
}

// ---------------------------------------------------------------------------
// QuantDeploy

TEST(QuantDeploy, LinearEvalForwardRoutesThroughEngine) {
  Rng rng(5);
  Sequential net;
  Linear& lin = net.emplace<Linear>(12, 7, rng, /*with_bias=*/true);
  const auto deployment = qinfer::deploy_quantized(net, deploy_config());
  ASSERT_EQ(deployment->layer_count(), 1u);
  ASSERT_NE(lin.mvm_hook(), nullptr);

  const Tensor x = random_tensor(Shape{3, 12}, 9);
  const Tensor got = net.forward(x, /*training=*/false);

  // Reference: engine mvm_batch + bias, exactly what the hooked path does.
  std::vector<float> want(3 * 7);
  deployment->engine(0).mvm_batch(x.data(), 3, want.data());
  const Tensor& bias = lin.bias().value;
  for (std::int64_t r = 0; r < 3; ++r) {
    for (std::int64_t o = 0; o < 7; ++o) {
      ASSERT_EQ(got[r * 7 + o], want[static_cast<std::size_t>(r * 7 + o)] + bias[o])
          << r << "," << o;
    }
  }
}

TEST(QuantDeploy, TrainingForwardBypassesHook) {
  auto net = make_mlp({12, 8, 4}, 3);
  const Tensor x = random_tensor(Shape{2, 12}, 11);
  const Tensor clean = net->forward(x, /*training=*/true);
  const auto deployment = qinfer::deploy_quantized(*net, deploy_config());
  const Tensor hooked_train = net->forward(x, /*training=*/true);
  const Tensor hooked_eval = net->forward(x, /*training=*/false);
  // Training ALWAYS uses the float weights (fault-aware training happens in
  // float space); only eval mode sees the quantized device.
  EXPECT_EQ(std::memcmp(clean.data(), hooked_train.data(),
                        static_cast<std::size_t>(clean.numel()) * sizeof(float)),
            0);
  bool differs = false;
  for (std::int64_t i = 0; i < clean.numel(); ++i) {
    if (clean[i] != hooked_eval[i]) differs = true;
  }
  EXPECT_TRUE(differs) << "eval forward should run the quantized datapath";
}

TEST(QuantDeploy, DtorUninstallsAndCloneDrops) {
  auto net = make_mlp({10, 6}, 7);
  const Tensor x = random_tensor(Shape{2, 10}, 13);
  const Tensor clean = net->forward(x, /*training=*/false);
  {
    const auto deployment = qinfer::deploy_quantized(*net, deploy_config());
    // A clone taken while hooked must NOT carry the hook (engines alias the
    // deployment, not the clone's weights).
    const auto copy = net->clone();
    const Tensor copy_out = copy->forward(x, /*training=*/false);
    EXPECT_EQ(std::memcmp(clean.data(), copy_out.data(),
                          static_cast<std::size_t>(clean.numel()) * sizeof(float)),
              0);
  }
  // Deployment destroyed -> float path restored bit-exactly.
  const Tensor after = net->forward(x, /*training=*/false);
  EXPECT_EQ(std::memcmp(clean.data(), after.data(),
                        static_cast<std::size_t>(clean.numel()) * sizeof(float)),
            0);
}

TEST(QuantDeploy, RedeployReplacesHookSafely) {
  auto net = make_mlp({10, 6}, 7);
  auto first = qinfer::deploy_quantized(*net, deploy_config(/*levels=*/16));
  auto second = qinfer::deploy_quantized(*net, deploy_config(/*levels=*/256));
  // Destroying the STALE deployment must not rip out the newer hook.
  first.reset();
  auto* lin = dynamic_cast<Linear*>(modules_of(*net)[1]);
  ASSERT_NE(lin, nullptr);
  EXPECT_NE(lin->mvm_hook(), nullptr);
  second.reset();
  EXPECT_EQ(lin->mvm_hook(), nullptr);
}

TEST(QuantDeploy, NonFiniteLinearInputPoisonsOnlyItsRow) {
  Rng rng(17);
  Sequential net;
  net.emplace<Linear>(4, 3, rng, /*with_bias=*/true);
  const auto deployment = qinfer::deploy_quantized(net, deploy_config());
  const Tensor x = random_tensor(Shape{2, 4}, 18);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    Tensor x_bad = x;
    Tensor x_zero = x;
    x_bad[1] = bad;  // row 0, feature 1
    x_zero[1] = 0.0f;
    const Tensor y_bad = net.forward(x_bad, /*training=*/false);
    const Tensor y_zero = net.forward(x_zero, /*training=*/false);
    for (std::int64_t o = 0; o < 3; ++o) EXPECT_TRUE(std::isnan(y_bad[o])) << "bad=" << bad;
    // The scale ignores the bad value, so its batchmate keeps every bit.
    EXPECT_EQ(std::memcmp(y_bad.data() + 3, y_zero.data() + 3, 3 * sizeof(float)), 0)
        << "bad=" << bad;
  }
}

TEST(QuantDeploy, NonFiniteConvInputPoisonsOnlyCoveringPixels) {
  struct Case {
    std::int64_t kernel, stride, pad, bad_y, bad_x;
  };
  // A 3x3 window over an interior pixel, and a 1x1 stride-2 conv whose
  // windows never read the bad pixel.
  for (const Case c : {Case{3, 1, 1, 2, 4}, Case{1, 2, 0, 1, 3}}) {
    Rng rng(21);
    Sequential net;
    net.emplace<Conv2d>(2, 5, c.kernel, c.stride, c.pad, rng);
    const auto deployment = qinfer::deploy_quantized(net, deploy_config());
    const std::int64_t H = 6, W = 6;
    const Tensor x = random_tensor(Shape{2, 2, H, W}, 22);
    const std::int64_t bad_index = (0 * 2 + 1) * H * W + c.bad_y * W + c.bad_x;  // image 0, channel 1
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity()}) {
      Tensor x_bad = x;
      Tensor x_zero = x;
      x_bad[bad_index] = bad;
      x_zero[bad_index] = 0.0f;
      const Tensor y_bad = net.forward(x_bad, /*training=*/false);
      const Tensor y_zero = net.forward(x_zero, /*training=*/false);
      const std::int64_t oh = y_bad.dim(2), ow = y_bad.dim(3);
      for (std::int64_t img = 0; img < 2; ++img) {
        for (std::int64_t o = 0; o < 5; ++o) {
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              const std::int64_t ky = c.bad_y - (oy * c.stride - c.pad);
              const std::int64_t kx = c.bad_x - (ox * c.stride - c.pad);
              const bool covers =
                  img == 0 && ky >= 0 && ky < c.kernel && kx >= 0 && kx < c.kernel;
              const std::int64_t at = ((img * 5 + o) * oh + oy) * ow + ox;
              if (covers) {
                EXPECT_TRUE(std::isnan(y_bad[at])) << "k=" << c.kernel << " at=" << at;
              } else {
                EXPECT_EQ(std::memcmp(y_bad.data() + at, y_zero.data() + at, sizeof(float)), 0)
                    << "k=" << c.kernel << " bad=" << bad << " at=" << at;
              }
            }
          }
        }
      }
    }
  }
}

TEST(QuantDeploy, ModelCellSpaceDefectMapSlicesPerLayer) {
  auto net = make_mlp({6, 4, 3}, 19);
  const auto deployment = qinfer::deploy_quantized(*net, deploy_config());
  ASSERT_EQ(deployment->layer_count(), 2u);
  const std::int64_t cells = deployment->cell_count();
  EXPECT_EQ(cells, crossbar_cell_count(*net));
  EXPECT_EQ(cells, 2 * (6 * 4 + 4 * 3));
  const Tensor clean0 = deployment->engine(0).read_back();
  const Tensor clean1 = deployment->engine(1).read_back();

  // One fault in each layer's range, in the fault_injector cell convention:
  // cell 0 = positive cell of layer-0 weight (0,0); layer1_cell = negative
  // cell of layer-1 weight (0,0).
  const std::int64_t layer1_cell = 2 * (6 * 4) + 1;
  deployment->apply_defect_map(DefectMap::from_faults(
      cells, {CellFault{0, FaultType::kStuckOn}, CellFault{layer1_cell, FaultType::kStuckOn}}));
  EXPECT_EQ(deployment->stuck_cells(), 2);
  EXPECT_EQ(deployment->engine(0).stuck_cells(), 1);
  EXPECT_EQ(deployment->engine(1).stuck_cells(), 1);

  // Stuck-on POSITIVE cell: lv+ pinned at L-1. For w >= 0 (lv- = 0) the
  // weight reads +w_max; for w < 0 it reads clean + w_max.
  const float w0 = dynamic_cast<Linear*>(modules_of(*net)[1])->weight().value[0];
  const float wmax0 = deployment->engine(0).w_max();
  const float want0 = w0 >= 0.0f ? wmax0 : clean0[0] + wmax0;
  EXPECT_NEAR(deployment->engine(0).read_back()[0], want0, 1e-5f);

  // Stuck-on NEGATIVE cell: lv- pinned at L-1. For w >= 0 the weight reads
  // clean - w_max; for w < 0 it reads -w_max.
  const float w1 = dynamic_cast<Linear*>(modules_of(*net)[3])->weight().value[0];
  const float wmax1 = deployment->engine(1).w_max();
  const float want1 = w1 >= 0.0f ? clean1[0] - wmax1 : -wmax1;
  EXPECT_NEAR(deployment->engine(1).read_back()[0], want1, 1e-5f);

  deployment->clear_defects();
  EXPECT_EQ(deployment->stuck_cells(), 0);
  EXPECT_TRUE(deployment->engine(0).read_back().allclose(clean0, 0.0f, 0.0f));
}

TEST(QuantDeploy, LayerCellRangesFollowCrossbarParams) {
  // Engine i owns model cells [offset_i, offset_i + 2 * numel(weight_i)),
  // offset_i the running sum over crossbar_params: a fault on the first and
  // on the last cell of each range must land on cells 0 and 2n-1 of engine i.
  std::vector<std::unique_ptr<Sequential>> nets;
  nets.push_back(make_resnet20(10, /*base_width=*/8, /*seed=*/1));
  nets.push_back(make_small_cnn(SmallCnnConfig{.image_size = 8, .width = 4, .classes = 4}));
  for (const auto& net : nets) {
    const auto deployment = qinfer::deploy_quantized(*net, deploy_config());
    const std::vector<Param*> weights = crossbar_params(*net);
    ASSERT_EQ(deployment->layer_count(), weights.size());
    std::int64_t offset = 0;
    std::vector<CellFault> faults;
    for (const Param* w : weights) {
      const std::int64_t cells = 2 * w->value.numel();
      faults.push_back({offset, FaultType::kStuckOff});
      faults.push_back({offset + cells - 1, FaultType::kStuckOn});
      offset += cells;
    }
    EXPECT_EQ(deployment->cell_count(), offset);
    deployment->apply_defect_map(DefectMap::from_faults(offset, faults));
    for (std::size_t i = 0; i < weights.size(); ++i) {
      const DefectMap local = deployment->engine(i).defect_map();
      const std::int64_t cells = 2 * weights[i]->value.numel();
      EXPECT_EQ(local.cell_count(), cells) << "layer " << i;
      ASSERT_EQ(local.faults().size(), 2u) << "layer " << i;
      EXPECT_EQ(local.faults()[0].cell_index, 0) << "layer " << i;
      EXPECT_EQ(local.faults()[0].type, FaultType::kStuckOff) << "layer " << i;
      EXPECT_EQ(local.faults()[1].cell_index, cells - 1) << "layer " << i;
      EXPECT_EQ(local.faults()[1].type, FaultType::kStuckOn) << "layer " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// QuantConvLowering — the engine's per-image int8 conv against its oracle,
// MvmHook's default staging (im2col, transpose, mvm_batch, transpose back),
// over a geometry grid.

struct ConvCase {
  std::int64_t kernel, stride, pad;
  bool uncovered_max;  ///< plant the largest |x| on a pixel no window reads
};

/// ctest names each instance after this (e.g. .../k3s1p1).
void PrintTo(const ConvCase& c, std::ostream* os) {
  *os << "k" << c.kernel << "s" << c.stride << "p" << c.pad
      << (c.uncovered_max ? "_uncovered_max" : "");
}

std::vector<ConvCase> conv_cases() {
  std::vector<ConvCase> cases;
  for (const std::int64_t k : {1, 3, 5}) {
    for (const std::int64_t s : {1, 2}) {
      for (const std::int64_t p : {0, 1, 2}) cases.push_back({k, s, p, false});
    }
  }
  cases.push_back({1, 2, 0, true});
  return cases;
}

/// The oracle: the staging that MvmHook::conv_image runs by default.
std::vector<float> lower_through_mvm_batch(const qinfer::QuantizedCrossbarEngine& engine,
                                           const Tensor& x, const ConvGeometry& g) {
  const std::int64_t n = x.dim(0), patch = g.col_rows(), pixels = g.col_cols();
  const std::int64_t out = engine.out_features();
  std::vector<float> col(static_cast<std::size_t>(patch * pixels));
  std::vector<float> patches(static_cast<std::size_t>(pixels * patch));
  std::vector<float> yb(static_cast<std::size_t>(pixels * out));
  std::vector<float> y(static_cast<std::size_t>(n * out * pixels));
  for (std::int64_t img = 0; img < n; ++img) {
    im2col(x.data() + img * g.in_c * g.in_h * g.in_w, g, col.data());
    for (std::int64_t r = 0; r < patch; ++r) {
      for (std::int64_t q = 0; q < pixels; ++q) {
        patches[static_cast<std::size_t>(q * patch + r)] =
            col[static_cast<std::size_t>(r * pixels + q)];
      }
    }
    engine.mvm_batch(patches.data(), pixels, yb.data());
    for (std::int64_t o = 0; o < out; ++o) {
      for (std::int64_t q = 0; q < pixels; ++q) {
        y[static_cast<std::size_t>((img * out + o) * pixels + q)] =
            yb[static_cast<std::size_t>(q * out + o)];
      }
    }
  }
  return y;
}

void expect_same_tallies(const abft::TileFaultReport& got, const abft::TileFaultReport& want,
                         const std::string& where) {
  EXPECT_EQ(got.checks, want.checks) << where;
  EXPECT_EQ(got.mismatches, want.mismatches) << where;
  ASSERT_EQ(got.tiles.size(), want.tiles.size()) << where;
  for (std::size_t t = 0; t < got.tiles.size(); ++t) {
    EXPECT_EQ(got.tiles[t].row_tile, want.tiles[t].row_tile) << where;
    EXPECT_EQ(got.tiles[t].col_tile, want.tiles[t].col_tile) << where;
    EXPECT_EQ(got.tiles[t].mismatches, want.tiles[t].mismatches) << where;
  }
}

/// A hook that implements only mvm_batch, so convolutions take
/// MvmHook::conv_image's default staging.
class BatchOnlyHook final : public MvmHook {
 public:
  explicit BatchOnlyHook(const qinfer::QuantizedCrossbarEngine& engine) : engine_(engine) {}
  void mvm_batch(const float* x, std::int64_t batch, float* y) const override {
    engine_.mvm_batch(x, batch, y);
  }
  [[nodiscard]] std::int64_t in_features() const noexcept override {
    return engine_.in_features();
  }
  [[nodiscard]] std::int64_t out_features() const noexcept override {
    return engine_.out_features();
  }

 private:
  const qinfer::QuantizedCrossbarEngine& engine_;
};

class QuantConvLowering : public ::testing::TestWithParam<ConvCase> {};

TEST_P(QuantConvLowering, MatchesManualLowering) {
  const ConvCase cc = GetParam();
  // Odd patch lengths (3, 27, 75) spread over 2 row tiles, the last one odd;
  // 24 outputs over 20-output tiles leave the second column tile mostly
  // unmapped, so the read bound skips panels there.
  const std::int64_t in_c = 3, out_c = 24, H = 7, W = 6;
  const std::int64_t patch = in_c * cc.kernel * cc.kernel;
  ConvGeometry g;
  g.in_c = in_c;
  g.in_h = H;
  g.in_w = W;
  g.kernel_h = g.kernel_w = cc.kernel;
  g.stride_h = g.stride_w = cc.stride;
  g.pad_h = g.pad_w = cc.pad;
  const std::int64_t pixels = g.col_cols();

  Tensor x = random_tensor(Shape{2, in_c, H, W}, 30 + static_cast<std::uint64_t>(patch));
  if (cc.uncovered_max) {
    // Stride 2, pad 0, 1x1: windows read even rows and columns only.
    for (std::int64_t i = 0; i < 2 * in_c; ++i) x[i * H * W + 1 * W + 1] = 100.0f;
  }
  for (const bool abft_on : {false, true}) {
    for (const int adc_bits : {0, 8}) {
      for (const bool device_die : {false, true}) {
        const std::string where = "abft=" + std::to_string(abft_on) +
                                  " adc=" + std::to_string(adc_bits) +
                                  " device=" + std::to_string(device_die);
        Rng rng(40 + static_cast<std::uint64_t>(patch));
        Sequential net;
        auto& conv = net.emplace<Conv2d>(in_c, out_c, cc.kernel, cc.stride, cc.pad, rng);
        QuantizedEngineConfig config = deploy_config(/*levels=*/16, adc_bits);
        config.tile_rows = ((patch + 1) / 2 + 1) & ~std::int64_t{1};
        config.tile_cols = 40;
        config.abft.enabled = abft_on;
        const auto deployment = qinfer::deploy_quantized(net, config);
        const qinfer::QuantizedCrossbarEngine& engine = deployment->engine(0);
        ASSERT_EQ(engine.row_tile_count(), 2);
        ASSERT_EQ(engine.col_tile_count(), 2);
        const std::int64_t cells = deployment->cell_count();
        Rng fault_rng(7);
        if (device_die) {
          // Also faults unmapped and checksum cells.
          deployment->apply_device_defects(StuckAtFaultModel(0.03), /*master_seed=*/5, 0);
        } else {
          deployment->apply_defect_map(DefectMap::sample(cells, StuckAtFaultModel(0.03), fault_rng));
        }
        if (abft_on) {
          // Faults after the baseline ring, so the tallies carry mismatches.
          deployment->abft_rebaseline();
          deployment->apply_defect_map(DefectMap::sample(cells, StuckAtFaultModel(0.01), fault_rng));
        }
        const std::vector<float> want = lower_through_mvm_batch(engine, x, g);
        const auto want_tallies =
            abft_on ? deployment->take_abft_reports() : std::vector<abft::TileFaultReport>{};

        for (const KernelLevel level : runnable_levels()) {
          for (const int threads : {1, 4}) {
            LevelGuard lg(level);
            ThreadGuard tg(threads);
            const std::string at = where + " level=" + std::to_string(static_cast<int>(level)) +
                                   " threads=" + std::to_string(threads);
            // Through Conv2d (images in parallel) ...
            const Tensor got = net.forward(x, /*training=*/false);
            ASSERT_EQ(got.numel(), static_cast<std::int64_t>(want.size()));
            EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0) << at;
            if (abft_on) expect_same_tallies(deployment->take_abft_reports()[0], want_tallies[0], at);
            // ... and image by image (output pixels in parallel).
            std::vector<float> direct(want.size());
            for (std::int64_t img = 0; img < 2; ++img) {
              conv.mvm_hook()->conv_image(x.data() + img * in_c * H * W, g,
                                          direct.data() + img * out_c * pixels);
            }
            EXPECT_EQ(std::memcmp(direct.data(), want.data(), want.size() * sizeof(float)), 0)
                << at;
            if (abft_on) expect_same_tallies(deployment->take_abft_reports()[0], want_tallies[0], at);
            // ... and through the default staging of a hook without conv_image.
            const BatchOnlyHook batch_only(engine);
            for (std::int64_t img = 0; img < 2; ++img) {
              batch_only.conv_image(x.data() + img * in_c * H * W, g,
                                    direct.data() + img * out_c * pixels);
            }
            EXPECT_EQ(std::memcmp(direct.data(), want.data(), want.size() * sizeof(float)), 0)
                << at;
            if (abft_on) expect_same_tallies(deployment->take_abft_reports()[0], want_tallies[0], at);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, QuantConvLowering, ::testing::ValuesIn(conv_cases()));

// ---------------------------------------------------------------------------
// QuantEval

TEST(QuantEval, AccuracyWithinOnePercentOfFloatAtZeroFaults) {
  // The acceptance criterion: >= 16 levels with an 8-bit ADC loses at most
  // 1% absolute accuracy against the float path at zero fault rate.
  const auto train = tiny_data(256, /*stream=*/1);
  const auto test = tiny_data(128, /*stream=*/2);
  auto net = make_flat_mlp(15);
  TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 32;
  tc.sgd.lr = 0.05f;
  tc.augment.enabled = false;
  tc.seed = 7;
  Trainer(*net, *train, tc).run();
  const double float_acc = evaluate_accuracy(*net, *test);
  EXPECT_GT(float_acc, 0.5);  // learned something real (chance 0.25)

  DefectEvalConfig config;
  config.num_runs = 1;
  config.engine = EvalEngine::kQuantized;
  config.quantized = deploy_config(/*levels=*/16, /*adc_bits=*/8);
  const DefectEvalResult result = evaluate_under_defects(*net, *test, /*p_sa=*/0.0, config);
  EXPECT_NEAR(result.mean_acc, float_acc, 0.01 + 1e-12);
  EXPECT_EQ(result.mean_cell_fault_rate, 0.0);

  // Faults through the quantized datapath must hurt a trained model.
  config.num_runs = 3;
  const double hurt = evaluate_under_defects(*net, *test, /*p_sa=*/0.25, config).mean_acc;
  EXPECT_LT(hurt, float_acc);
}

TEST(QuantEval, BitIdenticalAcrossThreadCounts) {
  // Small CNN so the Conv2d hook path runs inside the Monte-Carlo workers.
  auto net = make_small_cnn(SmallCnnConfig{.image_size = 8, .width = 4, .classes = 4});
  const auto data = tiny_data(48, /*stream=*/2);
  DefectEvalConfig config;
  config.num_runs = 4;
  config.seed = 55;
  config.batch_size = 16;
  config.engine = EvalEngine::kQuantized;
  config.quantized = deploy_config(/*levels=*/16, /*adc_bits=*/8);

  std::vector<double> base;
  {
    ThreadGuard threads(1);
    base = evaluate_under_defects(*net, *data, 0.05, config).run_accs;
  }
  ASSERT_EQ(base.size(), 4u);
  for (const int threads : {2, 3}) {
    ThreadGuard tg(threads);
    const DefectEvalResult result = evaluate_under_defects(*net, *data, 0.05, config);
    ASSERT_EQ(result.run_accs.size(), base.size());
    for (std::size_t r = 0; r < base.size(); ++r) {
      // Integer datapath + per-run seeds: EXACT equality, not a tolerance.
      EXPECT_EQ(result.run_accs[r], base[r]) << "threads=" << threads << " run=" << r;
    }
  }
}

// ---------------------------------------------------------------------------
// QuantServe

serve::ReplicaPoolConfig pool_config(int replicas, double p_sa) {
  serve::ReplicaPoolConfig config;
  config.num_replicas = replicas;
  config.p_sa = p_sa;
  config.seed = 21;
  config.engine = serve::ReplicaEngine::kQuantized;
  config.quantized = deploy_config();
  return config;
}

TEST(QuantServe, ReplicaWeightsStayCleanAndMapsAreDeterministic) {
  auto net = make_mlp({8, 6, 4}, 27);
  serve::ReplicaPool pool(*net, pool_config(/*replicas=*/2, /*p_sa=*/0.1));
  const std::vector<NamedParam> src = named_parameters_of(*net);
  for (int r = 0; r < pool.size(); ++r) {
    ASSERT_NE(pool.deployment(r), nullptr);
    EXPECT_EQ(pool.defect_map(r).fault_count(), pool.injection_stats(r).faulted_cells);
    // Level-domain deployment: the replica MODEL keeps clean float weights.
    std::vector<Param*> rep = parameters_of(pool.replica(r));
    ASSERT_EQ(src.size(), rep.size());
    for (std::size_t k = 0; k < src.size(); ++k) {
      EXPECT_TRUE(src[k].param->value.allclose(rep[k]->value, 0.0f, 0.0f)) << src[k].name;
    }
  }
  // Two pools with the same seed draw identical per-replica maps and produce
  // bit-identical eval outputs.
  serve::ReplicaPool twin(*net, pool_config(2, 0.1));
  const Tensor x = random_tensor(Shape{3, 8}, 31);
  for (int r = 0; r < pool.size(); ++r) {
    EXPECT_EQ(pool.defect_map(r).fault_count(), twin.defect_map(r).fault_count());
    const Tensor a = pool.replica(r).forward(x, /*training=*/false);
    const Tensor b = twin.replica(r).forward(x, /*training=*/false);
    EXPECT_EQ(
        std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)), 0)
        << "replica " << r;
  }
  // Distinct replicas see distinct dies.
  EXPECT_NE(pool.replica_seed(0), pool.replica_seed(1));
}

TEST(QuantServe, AgingLayersOntoEnginesWithoutReclone) {
  auto net = make_mlp({8, 6, 4}, 27);
  serve::ReplicaPool pool(*net, pool_config(/*replicas=*/1, /*p_sa=*/0.05));
  const Module* model_before = &pool.replica(0);
  const std::int64_t stuck_before = pool.deployment(0)->stuck_cells();

  AgingConfig ac;
  ac.p_new_per_interval = 0.05;
  const AgingModel aging(ac);
  const std::int64_t added = pool.advance_aging(0, aging, /*target_intervals=*/8);
  ASSERT_GT(added, 0);
  EXPECT_EQ(pool.aged_intervals(0), 8);
  // The level domain is non-destructive: no re-clone happened, the SAME
  // model object aged in place...
  EXPECT_EQ(&pool.replica(0), model_before);
  // ...and the engines now carry the grown map.
  EXPECT_GT(pool.deployment(0)->stuck_cells(), stuck_before);
  EXPECT_EQ(pool.injection_stats(0).faulted_cells, pool.defect_map(0).fault_count());

  // repair() swaps the die: fresh generation, fresh deployment, age reset.
  pool.repair(0);
  EXPECT_EQ(pool.generation(0), 1);
  ASSERT_NE(pool.deployment(0), nullptr);
  EXPECT_EQ(pool.aged_intervals(0), 0);
}

TEST(QuantServe, RepairGenerationsWalkTheDerivedSeedChain) {
  // Repeated repairs on the quantized path must follow the documented seed
  // schedule: generation 0 keeps the historical derive_seed(seed, r) stream,
  // generation g > 0 draws from derive_seed(derive_seed(seed, r), g) — so a
  // re-run of the fleet replays the exact same sequence of dies.
  auto net = make_mlp({8, 6, 4}, 27);
  const std::uint64_t base = 21;
  serve::ReplicaPool pool(*net, pool_config(/*replicas=*/2, /*p_sa=*/0.1));
  EXPECT_EQ(pool.replica_seed(1), derive_seed(base, 1));

  std::vector<std::int64_t> fault_history;
  for (int gen = 1; gen <= 3; ++gen) {
    pool.repair(1);
    EXPECT_EQ(pool.generation(1), gen);
    EXPECT_EQ(pool.replica_seed(1), derive_seed(derive_seed(base, 1), gen));
    fault_history.push_back(pool.defect_map(1).fault_count());
  }
  // Replica 0 never repaired: untouched generation and stream.
  EXPECT_EQ(pool.generation(0), 0);
  EXPECT_EQ(pool.replica_seed(0), derive_seed(base, 0));

  // A twin pool repaired the same number of times lands on the same die:
  // identical maps and bit-identical eval outputs at every generation.
  serve::ReplicaPool twin(*net, pool_config(2, 0.1));
  const Tensor x = random_tensor(Shape{3, 8}, 41);
  for (int gen = 1; gen <= 3; ++gen) {
    twin.repair(1);
    EXPECT_EQ(twin.defect_map(1).fault_count(), fault_history[static_cast<std::size_t>(gen - 1)]);
  }
  const Tensor a = pool.replica(1).forward(x, /*training=*/false);
  const Tensor b = twin.replica(1).forward(x, /*training=*/false);
  EXPECT_EQ(
      std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)), 0);
}

}  // namespace
}  // namespace ftpim
