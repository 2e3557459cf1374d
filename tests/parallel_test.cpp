#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/config.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/nn/conv2d.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

using testing::ThreadGuard;

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for_chunks(
      0, hits.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) hits[i]++;
      },
      /*min_parallel_trip=*/1);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoOp) {
  int calls = 0;
  const auto count = [&](std::size_t, std::size_t) { ++calls; };
  parallel_for_chunks(5, 5, count);
  parallel_for_chunks(7, 3, count);
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SmallTripRunsSerially) {
  // Below min_parallel_trip the caller thread runs everything as one chunk
  // (observable via exact sequential ordering).
  std::vector<std::size_t> order;
  int chunks = 0;
  parallel_for_chunks(
      0, 4,
      [&](std::size_t lo, std::size_t hi) {
        ++chunks;
        for (std::size_t i = lo; i < hi; ++i) order.push_back(i);
      },
      /*min_parallel_trip=*/100);
  EXPECT_EQ(chunks, 1);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(ParallelForChunks, ChunksPartitionRange) {
  std::vector<std::atomic<int>> hits(5000);
  parallel_for_chunks(
      0, hits.size(),
      [&](std::size_t lo, std::size_t hi) {
        EXPECT_LE(lo, hi);
        for (std::size_t i = lo; i < hi; ++i) hits[i]++;
      },
      /*min_parallel_trip=*/1);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForChunks, OffsetRangesWork) {
  std::atomic<long long> sum{0};
  parallel_for_chunks(100, 200, [&](std::size_t lo, std::size_t hi) {
    long long local = 0;
    for (std::size_t i = lo; i < hi; ++i) local += static_cast<long long>(i);
    sum += local;
  });
  EXPECT_EQ(sum.load(), (100 + 199) * 100 / 2);
}

/// Runs a 64-index loop whose body throws at every index in `failing`;
/// returns the message that reached the caller ("" if none) and counts the
/// indices that completed.
std::string first_error(const std::vector<std::size_t>& failing,
                        std::vector<std::atomic<int>>& done) {
  try {
    parallel_for_chunks(
        0, done.size(),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            for (const std::size_t f : failing) {
              if (i == f) throw std::runtime_error("index " + std::to_string(i));
            }
            done[i]++;
          }
        },
        /*min_parallel_trip=*/1);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ParallelFor, LowestChunkExceptionWinsAtAnyThreadCount) {
  // With 4 workers the 64 indices split into chunks of 16; failures sit in
  // chunks 0, 1, 2 and 3 (or only the last two). Every thread count must
  // report the lowest failing index, as the serial loop does, and every
  // chunk that did not throw must have finished before the rethrow.
  for (int threads = 1; threads <= 4; ++threads) {
    ThreadGuard guard(threads);
    std::vector<std::atomic<int>> done(64);
    EXPECT_EQ(first_error({40, 17, 63, 5}, done), "index 5") << threads << " threads";
    for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(done[i].load(), 1) << i;

    std::vector<std::atomic<int>> late(64);
    EXPECT_EQ(first_error({63, 40}, late), "index 40") << threads << " threads";
    for (std::size_t i = 0; i < 32; ++i) EXPECT_EQ(late[i].load(), 1) << i;

    std::vector<std::atomic<int>> clean(64);
    EXPECT_EQ(first_error({}, clean), "") << threads << " threads";
    for (const auto& d : clean) EXPECT_EQ(d.load(), 1);
  }
}

/// Conv hook whose per-image path throws on chosen images; the image index
/// comes from the input pointer's offset into the batch.
class ThrowingConvHook final : public MvmHook {
 public:
  ThrowingConvHook(const float* batch, std::int64_t image_floats, std::vector<std::int64_t> bad)
      : batch_(batch), image_floats_(image_floats), bad_(std::move(bad)) {}
  void mvm_batch(const float*, std::int64_t batch, float* y) const override {
    std::fill(y, y + batch * out_features(), 0.0f);
  }
  void conv_image(const float* x, const ConvGeometry& g, float* y) const override {
    const std::int64_t image = (x - batch_) / image_floats_;
    for (const std::int64_t b : bad_) {
      if (image == b) throw std::runtime_error("image " + std::to_string(image));
    }
    std::fill(y, y + out_features() * g.out_h() * g.out_w(), 0.0f);
  }
  [[nodiscard]] std::int64_t in_features() const noexcept override { return 2 * 3 * 3; }
  [[nodiscard]] std::int64_t out_features() const noexcept override { return 3; }

 private:
  const float* batch_;
  std::int64_t image_floats_;
  std::vector<std::int64_t> bad_;
};

TEST(ParallelFor, Conv2dHookExceptionReachesCaller) {
  // Conv2d's eval forward runs the hook from its per-image parallel loop:
  // 8 images over 4 workers is 4 chunks of 2, and images 3, 5 and 6 throw.
  Rng rng(3);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  const Tensor x = testing::random_tensor(Shape{8, 2, 5, 5}, 4);
  conv.set_mvm_hook(std::make_shared<ThrowingConvHook>(x.data(), 2 * 5 * 5,
                                                       std::vector<std::int64_t>{6, 3, 5}));
  for (const int threads : {1, 4}) {
    ThreadGuard guard(threads);
    try {
      (void)conv.forward(x, /*training=*/false);
      ADD_FAILURE() << "no exception at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "image 3") << threads << " threads";
    }
  }
}

TEST(NumThreads, PositiveAndStable) {
  EXPECT_GE(num_threads(), 1);
  EXPECT_EQ(num_threads(), num_threads());
}

TEST(NumThreads, OverrideSetAndClear) {
  const int base = num_threads();
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3);
  set_num_threads(1);
  EXPECT_EQ(num_threads(), 1);
  set_num_threads(0);  // clears the override
  EXPECT_EQ(num_threads(), base);
}

TEST(NumThreads, ConcurrentOverrideAndLoopsAreRaceFree) {
  // Hammers the documented contract of set_num_threads: concurrent override
  // writes, num_threads() reads, and parallel_for_chunks dispatch must be
  // free of data races (the TSan config of scripts/ci.sh runs this test) and
  // must never corrupt loop coverage.
  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    int n = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      set_num_threads(n);
      n = (n % 4) + 1;
    }
    set_num_threads(0);
  });
  for (int round = 0; round < 50; ++round) {
    const int seen = num_threads();
    EXPECT_GE(seen, 1);
    std::vector<std::atomic<int>> hits(257);
    parallel_for_chunks(
        0, hits.size(),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) hits[i]++;
        },
        /*min_parallel_trip=*/1);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
  stop.store(true, std::memory_order_relaxed);
  mutator.join();
  EXPECT_GE(num_threads(), 1);
}

TEST(EnvHelpers, ParseAndFallback) {
  EXPECT_EQ(env_int("FTPIM_SURELY_UNSET_VAR", 17), 17);
  EXPECT_DOUBLE_EQ(env_double("FTPIM_SURELY_UNSET_VAR", 2.5), 2.5);
  EXPECT_EQ(env_string("FTPIM_SURELY_UNSET_VAR", "x"), "x");
  setenv("FTPIM_TEST_ENV_INT", "42", 1);
  EXPECT_EQ(env_int("FTPIM_TEST_ENV_INT", 0), 42);
  setenv("FTPIM_TEST_ENV_INT", "-7", 1);  // the default range is all of int
  EXPECT_EQ(env_int("FTPIM_TEST_ENV_INT", 0), -7);
  // Garbage is a typo, not "unset": it throws instead of running the fallback.
  setenv("FTPIM_TEST_ENV_INT", "garbage", 1);
  EXPECT_THROW((void)env_int("FTPIM_TEST_ENV_INT", 9), ContractViolation);
  setenv("FTPIM_TEST_ENV_INT", "99999999999", 1);  // does not fit in int
  EXPECT_THROW((void)env_int("FTPIM_TEST_ENV_INT", 9), ContractViolation);
  unsetenv("FTPIM_TEST_ENV_INT");
  setenv("FTPIM_TEST_ENV_DOUBLE", "0.02", 1);
  EXPECT_DOUBLE_EQ(env_double("FTPIM_TEST_ENV_DOUBLE", 0.5), 0.02);
  for (const char* bad : {"0.02x", "abc", "inf", "nan"}) {
    setenv("FTPIM_TEST_ENV_DOUBLE", bad, 1);
    EXPECT_THROW((void)env_double("FTPIM_TEST_ENV_DOUBLE", 0.5), ContractViolation) << bad;
  }
  unsetenv("FTPIM_TEST_ENV_DOUBLE");
}

TEST(EnvHelpers, StrictDoubleRejectsJunkAndOutOfRange) {
  // A ranged read: a typo'd knob (FTPIM_ADC_RANGE and friends) must fail
  // loudly instead of silently running the fallback.
  unsetenv("FTPIM_TEST_ENV_RANGE");
  EXPECT_DOUBLE_EQ(env_double("FTPIM_TEST_ENV_RANGE", 0.25, 0.0, 1.0), 0.25);
  setenv("FTPIM_TEST_ENV_RANGE", "", 1);
  EXPECT_DOUBLE_EQ(env_double("FTPIM_TEST_ENV_RANGE", 0.25, 0.0, 1.0), 0.25);
  setenv("FTPIM_TEST_ENV_RANGE", "0.5", 1);
  EXPECT_DOUBLE_EQ(env_double("FTPIM_TEST_ENV_RANGE", 0.25, 0.0, 1.0), 0.5);
  setenv("FTPIM_TEST_ENV_RANGE", "1.0", 1);  // hi bound is inclusive
  EXPECT_DOUBLE_EQ(env_double("FTPIM_TEST_ENV_RANGE", 0.25, 0.0, 1.0), 1.0);
  // Trailing junk, non-numbers, NaN, and out-of-range values all throw a
  // ContractViolation naming the variable.
  for (const char* bad : {"0.5x", "garbage", "nan", "0", "-0.25", "1.5"}) {
    setenv("FTPIM_TEST_ENV_RANGE", bad, 1);
    EXPECT_THROW((void)env_double("FTPIM_TEST_ENV_RANGE", 0.25, 0.0, 1.0), ContractViolation)
        << bad;
  }
  unsetenv("FTPIM_TEST_ENV_RANGE");
}

TEST(EnvHelpers, StrictIntRejectsJunkAndOutOfRange) {
  // A ranged env_int backs FTPIM_THREADS (src/common/parallel.cpp): a mistyped
  // worker count must throw, not silently pick hardware_concurrency. The
  // helper is exercised directly because num_threads() caches its first
  // resolution behind a magic static.
  unsetenv("FTPIM_TEST_ENV_THREADS");
  EXPECT_EQ(env_int("FTPIM_TEST_ENV_THREADS", 4, 1, 4096), 4);
  setenv("FTPIM_TEST_ENV_THREADS", "", 1);
  EXPECT_EQ(env_int("FTPIM_TEST_ENV_THREADS", 4, 1, 4096), 4);
  setenv("FTPIM_TEST_ENV_THREADS", "8", 1);
  EXPECT_EQ(env_int("FTPIM_TEST_ENV_THREADS", 4, 1, 4096), 8);
  setenv("FTPIM_TEST_ENV_THREADS", "1", 1);  // both bounds inclusive
  EXPECT_EQ(env_int("FTPIM_TEST_ENV_THREADS", 4, 1, 4096), 1);
  setenv("FTPIM_TEST_ENV_THREADS", "4096", 1);
  EXPECT_EQ(env_int("FTPIM_TEST_ENV_THREADS", 4, 1, 4096), 4096);
  for (const char* bad : {"8x", "4.5", "garbage", "0", "-2", "4097", "80000"}) {
    setenv("FTPIM_TEST_ENV_THREADS", bad, 1);
    EXPECT_THROW((void)env_int("FTPIM_TEST_ENV_THREADS", 4, 1, 4096), ContractViolation)
        << bad;
  }
  unsetenv("FTPIM_TEST_ENV_THREADS");
}

TEST(RunScale, QuickDefaultsAndOverrides) {
  unsetenv("FTPIM_SCALE");
  unsetenv("FTPIM_EPOCHS");
  const RunScale quick = run_scale();
  EXPECT_EQ(quick.name, "quick");
  EXPECT_GT(quick.epochs, 0);
  setenv("FTPIM_SCALE", "full", 1);
  const RunScale full = run_scale();
  EXPECT_EQ(full.name, "full");
  EXPECT_EQ(full.epochs, 160);
  EXPECT_EQ(full.defect_runs, 100);
  setenv("FTPIM_EPOCHS", "5", 1);
  EXPECT_EQ(run_scale().epochs, 5);
  unsetenv("FTPIM_SCALE");
  unsetenv("FTPIM_EPOCHS");
}

TEST(RunScale, UnknownPresetThrowsNamingTheVariable) {
  unsetenv("FTPIM_EPOCHS");
  for (const char* bad : {"ful", "Quick", "large"}) {
    setenv("FTPIM_SCALE", bad, 1);
    try {
      (void)run_scale();
      ADD_FAILURE() << "FTPIM_SCALE=" << bad << " did not throw";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("FTPIM_SCALE"), std::string::npos) << e.what();
    }
  }
  unsetenv("FTPIM_SCALE");
}

TEST(RunScale, MalformedOrNonPositiveFieldThrowsNamingTheVariable) {
  unsetenv("FTPIM_SCALE");
  // "1O" (letter O) has a valid prefix and "abc" none; -1 and 0 count nothing.
  for (const char* bad : {"1O", "abc", "-1", "0", "99999999999"}) {
    setenv("FTPIM_RUNS", bad, 1);
    try {
      (void)run_scale();
      ADD_FAILURE() << "FTPIM_RUNS=" << bad << " did not throw";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("FTPIM_RUNS"), std::string::npos) << e.what();
    }
  }
  unsetenv("FTPIM_RUNS");
  setenv("FTPIM_EPOCHS", "-1", 1);
  EXPECT_THROW((void)run_scale(), ContractViolation);
  setenv("FTPIM_EPOCHS", "1", 1);  // the smallest valid value reads as before
  EXPECT_EQ(run_scale().epochs, 1);
  unsetenv("FTPIM_EPOCHS");
}

}  // namespace
}  // namespace ftpim
