// Coverage for the odds and ends: logging levels, shape formatting, 4-D
// accessors, experiment dataset selection via env vars, guard cell counts.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <vector>

#include "src/common/logging.hpp"
#include "src/core/experiment.hpp"
#include "src/models/mlp.hpp"
#include "src/reram/fault_injector.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

namespace fs = std::filesystem;

TEST(Logging, LevelsAreOrderedAndSettable) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  // Emitting at every level must not crash regardless of threshold.
  log_debug("debug %d", 1);
  log_info("info %s", "x");
  log_warn("warn %.1f", 2.0);
  log_error("error");
  set_log_level(saved);
}

TEST(ShapeUtils, ToStringAndNumel) {
  EXPECT_EQ(shape_to_string({2, 3, 4}), "[2, 3, 4]");
  EXPECT_EQ(shape_to_string({}), "[]");
  EXPECT_EQ(shape_numel({2, 3, 4}), 24);
  EXPECT_EQ(shape_numel({}), 1);
  EXPECT_THROW((void)shape_numel({-1}), std::invalid_argument);
}

TEST(Tensor, FourDimAccessorMatchesFlatLayout) {
  Tensor t(Shape{2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 7.5f;
  EXPECT_FLOAT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 7.5f);
  const Tensor& ct = t;
  EXPECT_FLOAT_EQ(ct.at(1, 2, 3, 4), 7.5f);
}

TEST(FaultInjectionSession, CellCountIsTwicePerWeight) {
  auto net = make_mlp({5, 7, 2}, 1);
  std::int64_t crossbar_weights = 0;
  for (const Param* p : parameters_of(*net)) {
    if (p->kind == ParamKind::kCrossbarWeight) crossbar_weights += p->value.numel();
  }
  FaultInjectionSession session(*net);
  Rng rng(2);
  session.inject(StuckAtFaultModel(0.1), {}, rng);
  EXPECT_EQ(session.stats().cells, 2 * crossbar_weights);
}

TEST(Experiment, UsesRealCifarWhenDirectoryProvided) {
  // Build a minimal fixture in the CIFAR-10 binary format and point the
  // experiment at it via FTPIM_CIFAR10_DIR.
  const std::string dir = testing::scratch_dir().string();
  auto write_file = [&](const std::string& name, int count) {
    std::FILE* f = std::fopen((dir + "/" + name).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::vector<unsigned char> rec(1 + 3072);
    for (int r = 0; r < count; ++r) {
      rec[0] = static_cast<unsigned char>(r % 10);
      for (int p = 1; p <= 3072; ++p) rec[static_cast<std::size_t>(p)] =
          static_cast<unsigned char>((r + p) % 256);
      ASSERT_EQ(std::fwrite(rec.data(), 1, rec.size(), f), rec.size());
    }
    std::fclose(f);
  };
  for (int b = 1; b <= 5; ++b) write_file("data_batch_" + std::to_string(b) + ".bin", 8);
  write_file("test_batch.bin", 8);
  setenv("FTPIM_CIFAR10_DIR", dir.c_str(), 1);

  ExperimentConfig cfg;
  cfg.classes = 10;
  cfg.resnet_depth = 8;
  cfg.scale = RunScale{.epochs = 1, .defect_runs = 1, .train_size = 16, .test_size = 8,
                       .image_size = 32, .resnet_width = 2, .batch_size = 8, .name = "test"};
  const Experiment exp(cfg);
  EXPECT_EQ(exp.dataset_name(), "CIFAR-10 (real)");
  EXPECT_EQ(exp.train_data().size(), 16);
  EXPECT_EQ(exp.train_data().image_shape(), (Shape{3, 32, 32}));

  unsetenv("FTPIM_CIFAR10_DIR");
  fs::remove_all(dir);
}

TEST(Experiment, FallsBackToSynthVisionWithoutCifar) {
  setenv("FTPIM_CIFAR10_DIR", "/nonexistent/ftpim", 1);
  ExperimentConfig cfg;
  cfg.classes = 10;
  cfg.resnet_depth = 8;
  cfg.scale = RunScale{.epochs = 1, .defect_runs = 1, .train_size = 8, .test_size = 8,
                       .image_size = 8, .resnet_width = 2, .batch_size = 8, .name = "test"};
  const Experiment exp(cfg);
  EXPECT_NE(exp.dataset_name().find("SynthVision"), std::string::npos);
  unsetenv("FTPIM_CIFAR10_DIR");
}

TEST(InjectionStats, RateOfEmptyIsZero) {
  const InjectionStats empty{};
  EXPECT_DOUBLE_EQ(empty.cell_fault_rate(), 0.0);
}

}  // namespace
}  // namespace ftpim
