// Property tests for the packed kernel backend (src/tensor/kernels/):
//   * packed GEMM vs a naive triple loop, per dispatch level, across seeded
//     shapes including ragged edge tiles and all transpose variants;
//   * bit-identity of GEMM and Conv2d forward/backward across FTPIM_THREADS
//     at a fixed dispatch level (the repo's determinism contract);
//   * scalar/AVX2 agreement within float tolerance;
//   * the FTPIM_KERNEL dispatch contract (parse, override, clamping).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/rng.hpp"
#include "src/nn/conv2d.hpp"
#include "src/tensor/gemm.hpp"
#include "src/tensor/im2col.hpp"
#include "src/tensor/kernels/conv_kernels.hpp"
#include "src/tensor/kernels/dispatch.hpp"
#include "src/tensor/tensor.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

using kernels::KernelLevel;
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

void naive_gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha, const float* a,
                const float* b, float beta, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
      c[i * n + j] = alpha * static_cast<float>(acc) + beta * c[i * n + j];
    }
  }
}

void naive_gemm_at(std::int64_t m, std::int64_t n, std::int64_t k, float alpha, const float* a,
                   const float* b, float beta, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) acc += static_cast<double>(a[p * m + i]) * b[p * n + j];
      c[i * n + j] = alpha * static_cast<float>(acc) + beta * c[i * n + j];
    }
  }
}

void naive_gemm_bt(std::int64_t m, std::int64_t n, std::int64_t k, float alpha, const float* a,
                   const float* b, float beta, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) acc += static_cast<double>(a[i * k + p]) * b[j * k + p];
      c[i * n + j] = alpha * static_cast<float>(acc) + beta * c[i * n + j];
    }
  }
}

struct GemmDims {
  std::int64_t m, n, k;
};

// Shapes chosen to cross every blocking boundary: exact micro-tiles (6x16),
// one-off ragged edges, sub-tile problems, K spanning multiple kKC=256 slabs,
// and M spanning multiple kMC=96 blocks / worker panels.
const GemmDims kShapes[] = {
    {1, 1, 1},    {6, 16, 16},  {7, 17, 31},   {5, 15, 64},   {12, 32, 256},
    {13, 48, 257}, {33, 65, 129}, {97, 40, 300}, {100, 1, 50},  {1, 100, 50},
    {64, 300, 17}, {200, 96, 64},
};

class GemmKernelParamTest : public ::testing::TestWithParam<GemmDims> {};

TEST_P(GemmKernelParamTest, MatchesNaiveAtEveryLevel) {
  const auto [m, n, k] = GetParam();
  const Tensor a = random_tensor(Shape{m, k}, 21);
  const Tensor b = random_tensor(Shape{k, n}, 22);
  const Tensor c0 = random_tensor(Shape{m, n}, 23);

  Tensor ref = c0;
  naive_gemm(m, n, k, 1.5f, a.data(), b.data(), 0.5f, ref.data());
  for (const KernelLevel level : runnable_levels()) {
    LevelGuard guard(level);
    Tensor c = c0;
    gemm(m, n, k, 1.5f, a.data(), b.data(), 0.5f, c.data());
    EXPECT_TRUE(c.allclose(ref, 1e-3f, 1e-3f))
        << "level=" << kernels::kernel_level_name(level) << " m=" << m << " n=" << n
        << " k=" << k;
  }
}

TEST_P(GemmKernelParamTest, TransposedVariantsMatchNaiveAtEveryLevel) {
  const auto [m, n, k] = GetParam();
  const Tensor a_t = random_tensor(Shape{k, m}, 24);  // gemm_at operand
  const Tensor b_t = random_tensor(Shape{n, k}, 25);  // gemm_bt operand
  const Tensor a = random_tensor(Shape{m, k}, 26);
  const Tensor b = random_tensor(Shape{k, n}, 27);
  const Tensor c0 = random_tensor(Shape{m, n}, 28);

  Tensor ref_at = c0;
  naive_gemm_at(m, n, k, 2.0f, a_t.data(), b.data(), 1.0f, ref_at.data());
  Tensor ref_bt = c0;
  naive_gemm_bt(m, n, k, 1.0f, a.data(), b_t.data(), 0.0f, ref_bt.data());

  for (const KernelLevel level : runnable_levels()) {
    LevelGuard guard(level);
    Tensor c_at = c0;
    gemm_at(m, n, k, 2.0f, a_t.data(), b.data(), 1.0f, c_at.data());
    EXPECT_TRUE(c_at.allclose(ref_at, 1e-3f, 1e-3f))
        << "gemm_at level=" << kernels::kernel_level_name(level) << " m=" << m << " n=" << n
        << " k=" << k;
    Tensor c_bt = c0;
    gemm_bt(m, n, k, 1.0f, a.data(), b_t.data(), 0.0f, c_bt.data());
    EXPECT_TRUE(c_bt.allclose(ref_bt, 1e-3f, 1e-3f))
        << "gemm_bt level=" << kernels::kernel_level_name(level) << " m=" << m << " n=" << n
        << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmKernelParamTest, ::testing::ValuesIn(kShapes));

TEST(GemmKernelDeterminism, BitIdenticalAcrossThreadCounts) {
  // Large enough that the driver's flop heuristic goes parallel (>=1.5e6).
  const std::int64_t m = 250, n = 96, k = 64;
  const Tensor a = random_tensor(Shape{m, k}, 31);
  const Tensor b = random_tensor(Shape{k, n}, 32);
  const Tensor c0 = random_tensor(Shape{m, n}, 33);

  for (const KernelLevel level : runnable_levels()) {
    LevelGuard guard(level);
    Tensor baseline = c0;
    {
      ThreadGuard threads(1);
      gemm(m, n, k, 1.25f, a.data(), b.data(), 0.5f, baseline.data());
    }
    for (const int workers : {2, 3, 5, 8}) {
      ThreadGuard threads(workers);
      Tensor c = c0;
      gemm(m, n, k, 1.25f, a.data(), b.data(), 0.5f, c.data());
      EXPECT_EQ(0, std::memcmp(baseline.data(), c.data(),
                               static_cast<std::size_t>(m * n) * sizeof(float)))
          << "level=" << kernels::kernel_level_name(level) << " workers=" << workers;
    }
  }
}

TEST(GemmKernelLevels, ScalarAndAvx2AgreeWithinTolerance) {
  if (!kernels::avx2_available()) GTEST_SKIP() << "no AVX2+FMA on this host/build";
  const std::int64_t m = 57, n = 83, k = 301;
  const Tensor a = random_tensor(Shape{m, k}, 41);
  const Tensor b = random_tensor(Shape{k, n}, 42);
  Tensor c_scalar(Shape{m, n});
  Tensor c_avx2(Shape{m, n});
  {
    LevelGuard guard(KernelLevel::kScalar);
    gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c_scalar.data());
  }
  {
    LevelGuard guard(KernelLevel::kAvx2);
    gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c_avx2.data());
  }
  EXPECT_TRUE(c_scalar.allclose(c_avx2, 1e-3f, 1e-3f));
}

TEST(KernelDispatch, ParseKernelEnvContract) {
  EXPECT_EQ(kernels::parse_kernel_env("scalar", KernelLevel::kAvx2), KernelLevel::kScalar);
  EXPECT_EQ(kernels::parse_kernel_env(nullptr, KernelLevel::kScalar), KernelLevel::kScalar);
  EXPECT_EQ(kernels::parse_kernel_env("bogus", KernelLevel::kScalar), KernelLevel::kScalar);
  // "avx2" resolves to the AVX2 kernel only when the host can run it.
  const KernelLevel want =
      kernels::avx2_available() ? KernelLevel::kAvx2 : KernelLevel::kScalar;
  EXPECT_EQ(kernels::parse_kernel_env("avx2", KernelLevel::kScalar), want);
}

TEST(KernelDispatch, StrictEnvParseThrowsOnUnknownLevel) {
  // parse_kernel_env_strict is what the cached FTPIM_KERNEL resolution uses:
  // unset/empty keeps the fallback, known names resolve (with the same
  // capability clamp as the lenient parser), anything else is a typo and
  // must throw instead of silently running the host's best kernel.
  EXPECT_EQ(kernels::parse_kernel_env_strict(nullptr, KernelLevel::kScalar),
            KernelLevel::kScalar);
  EXPECT_EQ(kernels::parse_kernel_env_strict("", KernelLevel::kScalar), KernelLevel::kScalar);
  EXPECT_EQ(kernels::parse_kernel_env_strict("scalar", KernelLevel::kAvx2),
            KernelLevel::kScalar);
  const KernelLevel want =
      kernels::avx2_available() ? KernelLevel::kAvx2 : KernelLevel::kScalar;
  EXPECT_EQ(kernels::parse_kernel_env_strict("avx2", KernelLevel::kScalar), want);
  for (const char* bad : {"bogus", "AVX2", "scalar ", "sse", "avx512"}) {
    EXPECT_THROW((void)kernels::parse_kernel_env_strict(bad, KernelLevel::kScalar),
                 ContractViolation)
        << bad;
  }
}

TEST(KernelDispatch, OverrideNeverSelectsUnrunnableLevel) {
  {
    LevelGuard guard(KernelLevel::kAvx2);
    const KernelLevel active = kernels::active_kernel_level();
    if (kernels::avx2_available()) {
      EXPECT_EQ(active, KernelLevel::kAvx2);
    } else {
      EXPECT_EQ(active, KernelLevel::kScalar);
    }
  }
  LevelGuard guard(KernelLevel::kScalar);
  EXPECT_EQ(kernels::active_kernel_level(), KernelLevel::kScalar);
}

TEST(KernelDispatch, LevelNames) {
  EXPECT_STREQ(kernels::kernel_level_name(KernelLevel::kScalar), "scalar");
  EXPECT_STREQ(kernels::kernel_level_name(KernelLevel::kAvx2), "avx2");
}

// ---------------------------------------------------------------------------
// Fused conv path: correctness vs the explicit im2col reference.
// ---------------------------------------------------------------------------

ConvGeometry test_geom() {
  return ConvGeometry{.in_c = 3,
                      .in_h = 11,
                      .in_w = 9,
                      .kernel_h = 3,
                      .kernel_w = 3,
                      .stride_h = 2,
                      .stride_w = 1,
                      .pad_h = 1,
                      .pad_w = 1};
}

TEST(ConvKernelCorrectness, ForwardMatchesIm2colReference) {
  const ConvGeometry g = test_geom();
  const std::int64_t out_c = 7;
  const Tensor image = random_tensor(Shape{g.in_c, g.in_h, g.in_w}, 51);
  const Tensor weight = random_tensor(Shape{out_c, g.col_rows()}, 52);

  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()), 0.0f);
  im2col(image.data(), g, col.data());
  Tensor ref(Shape{out_c, g.col_cols()});
  naive_gemm(out_c, g.col_cols(), g.col_rows(), 1.0f, weight.data(), col.data(), 0.0f,
             ref.data());

  for (const KernelLevel level : runnable_levels()) {
    LevelGuard guard(level);
    Tensor out(Shape{out_c, g.col_cols()});
    kernels::conv_forward_packed(g, weight.data(), out_c, image.data(), out.data());
    EXPECT_TRUE(out.allclose(ref, 1e-3f, 1e-3f))
        << "level=" << kernels::kernel_level_name(level);
  }
}

TEST(ConvKernelCorrectness, GradWeightMatchesIm2colReference) {
  const ConvGeometry g = test_geom();
  const std::int64_t out_c = 7;
  const Tensor image = random_tensor(Shape{g.in_c, g.in_h, g.in_w}, 53);
  const Tensor dout = random_tensor(Shape{out_c, g.col_cols()}, 54);

  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()), 0.0f);
  im2col(image.data(), g, col.data());
  // dW[o, r] = sum_p dout[o, p] * col[r, p]
  Tensor ref(Shape{out_c, g.col_rows()});
  naive_gemm_bt(out_c, g.col_rows(), g.col_cols(), 1.0f, dout.data(), col.data(), 0.0f,
                ref.data());

  for (const KernelLevel level : runnable_levels()) {
    LevelGuard guard(level);
    Tensor dw(Shape{out_c, g.col_rows()});
    kernels::conv_grad_weight_packed(g, dout.data(), out_c, image.data(), dw.data());
    EXPECT_TRUE(dw.allclose(ref, 1e-3f, 1e-3f))
        << "level=" << kernels::kernel_level_name(level);
  }
}

TEST(ConvKernelCorrectness, GradInputMatchesIm2colReference) {
  const ConvGeometry g = test_geom();
  const std::int64_t out_c = 7;
  const Tensor weight = random_tensor(Shape{out_c, g.col_rows()}, 55);
  const Tensor dout = random_tensor(Shape{out_c, g.col_cols()}, 56);

  // dcol = W^T * dY, then col2im.
  std::vector<float> dcol(static_cast<std::size_t>(g.col_rows() * g.col_cols()), 0.0f);
  naive_gemm_at(g.col_rows(), g.col_cols(), out_c, 1.0f, weight.data(), dout.data(), 0.0f,
                dcol.data());
  Tensor ref(Shape{g.in_c, g.in_h, g.in_w});
  col2im(dcol.data(), g, ref.data());

  for (const KernelLevel level : runnable_levels()) {
    LevelGuard guard(level);
    Tensor dx(Shape{g.in_c, g.in_h, g.in_w});
    kernels::conv_grad_input_packed(g, weight.data(), out_c, dout.data(), dx.data());
    EXPECT_TRUE(dx.allclose(ref, 1e-3f, 1e-3f))
        << "level=" << kernels::kernel_level_name(level);
  }
}

// ---------------------------------------------------------------------------
// Conv2d module: forward and backward bit-identical across worker counts at
// the ambient dispatch level (so the CI scalar leg covers scalar, the
// default leg covers AVX2).
// ---------------------------------------------------------------------------

struct ConvRun {
  Tensor out, grad_input, grad_weight, grad_bias;
};

ConvRun run_conv(int workers) {
  ThreadGuard threads(workers);
  Rng rng(42);
  Conv2d conv(3, 8, 3, 1, 1, rng, /*with_bias=*/true);
  const Tensor x = random_tensor(Shape{5, 3, 11, 9}, 61);
  ConvRun r;
  r.out = conv.forward(x, /*training=*/true);
  const Tensor dy = random_tensor(r.out.shape(), 62);
  r.grad_input = conv.backward(dy);
  std::vector<Param*> params;
  conv.collect_params("", params);
  r.grad_weight = params[0]->grad;
  r.grad_bias = params[1]->grad;
  return r;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const char* what, int workers) {
  ASSERT_EQ(a.numel(), b.numel());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.numel()) * sizeof(float)))
      << what << " differs between 1 worker and " << workers << " workers";
}

TEST(ConvKernelDeterminism, ForwardBackwardBitIdenticalAcrossThreadCounts) {
  const ConvRun baseline = run_conv(1);
  for (const int workers : {2, 3, 8}) {
    const ConvRun r = run_conv(workers);
    expect_bitwise_equal(baseline.out, r.out, "forward output", workers);
    expect_bitwise_equal(baseline.grad_input, r.grad_input, "grad_input", workers);
    expect_bitwise_equal(baseline.grad_weight, r.grad_weight, "grad_weight", workers);
    expect_bitwise_equal(baseline.grad_bias, r.grad_bias, "grad_bias", workers);
  }
}

}  // namespace
}  // namespace ftpim
