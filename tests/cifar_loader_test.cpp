// Tests the real-CIFAR binary loader against synthetic fixture files written
// in the exact CIFAR-10/100 record format.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/data/cifar_loader.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

namespace fs = std::filesystem;

class CifarLoaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::scratch_dir().string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Writes `count` CIFAR records. Pixel p of record r is (r*7 + p) % 256;
  /// label is r % 10 (fine label r % 100 for CIFAR-100).
  void write_fixture(const std::string& filename, int count, int label_bytes) {
    std::FILE* f = std::fopen((dir_ + "/" + filename).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::vector<unsigned char> record(static_cast<std::size_t>(label_bytes) + 3072);
    for (int r = 0; r < count; ++r) {
      if (label_bytes == 2) {
        record[0] = static_cast<unsigned char>(r % 20);   // coarse
        record[1] = static_cast<unsigned char>(r % 100);  // fine
      } else {
        record[0] = static_cast<unsigned char>(r % 10);
      }
      for (int p = 0; p < 3072; ++p) {
        record[static_cast<std::size_t>(label_bytes + p)] =
            static_cast<unsigned char>((r * 7 + p) % 256);
      }
      ASSERT_EQ(std::fwrite(record.data(), 1, record.size(), f), record.size());
    }
    std::fclose(f);
  }

  std::string dir_;
};

TEST_F(CifarLoaderTest, AvailabilityChecks) {
  EXPECT_FALSE(cifar10_available(dir_));
  EXPECT_FALSE(cifar100_available(dir_));
  for (int b = 1; b <= 5; ++b) write_fixture("data_batch_" + std::to_string(b) + ".bin", 4, 1);
  write_fixture("test_batch.bin", 4, 1);
  EXPECT_TRUE(cifar10_available(dir_));
  write_fixture("train.bin", 4, 2);
  write_fixture("test.bin", 4, 2);
  EXPECT_TRUE(cifar100_available(dir_));
}

TEST_F(CifarLoaderTest, LoadsCifar10TrainAcrossBatches) {
  for (int b = 1; b <= 5; ++b) write_fixture("data_batch_" + std::to_string(b) + ".bin", 3, 1);
  write_fixture("test_batch.bin", 2, 1);
  const auto train = load_cifar10(dir_, /*train=*/true, 0);
  EXPECT_EQ(train->size(), 15);
  EXPECT_EQ(train->num_classes(), 10);
  EXPECT_EQ(train->image_shape(), (Shape{3, 32, 32}));
  const auto test = load_cifar10(dir_, /*train=*/false, 0);
  EXPECT_EQ(test->size(), 2);
}

TEST_F(CifarLoaderTest, RespectsMaxSamples) {
  for (int b = 1; b <= 5; ++b) write_fixture("data_batch_" + std::to_string(b) + ".bin", 10, 1);
  write_fixture("test_batch.bin", 10, 1);
  const auto train = load_cifar10(dir_, /*train=*/true, 12);
  EXPECT_EQ(train->size(), 12);
}

TEST_F(CifarLoaderTest, LabelsRoundTrip) {
  write_fixture("data_batch_1.bin", 10, 1);
  for (int b = 2; b <= 5; ++b) write_fixture("data_batch_" + std::to_string(b) + ".bin", 0, 1);
  write_fixture("test_batch.bin", 0, 1);
  const auto train = load_cifar10(dir_, /*train=*/true, 0);
  for (std::int64_t i = 0; i < train->size(); ++i) {
    EXPECT_EQ(train->get(i).label, i % 10);
  }
}

TEST_F(CifarLoaderTest, Cifar100UsesFineLabel) {
  write_fixture("train.bin", 25, 2);
  write_fixture("test.bin", 5, 2);
  const auto train = load_cifar100(dir_, /*train=*/true, 0);
  EXPECT_EQ(train->num_classes(), 100);
  for (std::int64_t i = 0; i < train->size(); ++i) {
    EXPECT_EQ(train->get(i).label, i % 100);  // fine, not coarse (i % 20)
  }
}

TEST_F(CifarLoaderTest, MissingFileThrows) {
  EXPECT_THROW(load_cifar10(dir_, true, 0), std::runtime_error);
}

TEST_F(CifarLoaderTest, TruncatedRecordThrows) {
  write_fixture("test_batch.bin", 2, 1);
  fs::resize_file(dir_ + "/test_batch.bin", 3073 + 100);  // 1 full + partial record
  EXPECT_THROW(load_cifar10(dir_, false, 0), std::runtime_error);
}

TEST_F(CifarLoaderTest, PixelsAreNormalized) {
  write_fixture("test_batch.bin", 8, 1);
  const auto test = load_cifar10(dir_, /*train=*/false, 0);
  // After per-channel normalization the global per-channel mean is ~0.
  double sum = 0.0;
  std::int64_t n = 0;
  for (std::int64_t i = 0; i < test->size(); ++i) {
    const Sample s = test->get(i);
    for (std::int64_t j = 0; j < s.image.numel(); ++j) sum += s.image[j];
    n += s.image.numel();
  }
  EXPECT_NEAR(sum / static_cast<double>(n), 0.0, 1e-3);
}

}  // namespace
}  // namespace ftpim
