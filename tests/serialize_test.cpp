#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/common/checkpoint.hpp"
#include "src/tensor/serialize.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

std::string temp_path(const char* name) { return (testing::scratch_dir() / name).string(); }

TEST(Serialize, RoundTripsStateDict) {
  StateDict state;
  state.emplace("layer0.weight", testing::random_tensor(Shape{4, 7}, 1));
  state.emplace("layer0.bias", testing::random_tensor(Shape{4}, 2));
  state.emplace("bn.running_mean", testing::random_tensor(Shape{16}, 3));
  const std::string path = temp_path("ftpim_roundtrip.bin");
  save_state_dict(state, path);
  const StateDict loaded = load_state_dict(path);
  ASSERT_EQ(loaded.size(), state.size());
  for (const auto& [name, tensor] : state) {
    const auto it = loaded.find(name);
    ASSERT_NE(it, loaded.end()) << name;
    EXPECT_TRUE(it->second.allclose(tensor, 0.0f, 0.0f)) << name;
  }
  std::filesystem::remove(path);
}

TEST(Serialize, EmptyDictRoundTrips) {
  const std::string path = temp_path("ftpim_empty.bin");
  save_state_dict({}, path);
  EXPECT_TRUE(load_state_dict(path).empty());
  std::filesystem::remove(path);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_state_dict("/nonexistent/dir/x.bin"), std::runtime_error);
}

TEST(Serialize, UnwritablePathThrows) {
  EXPECT_THROW(save_state_dict({}, "/nonexistent/dir/x.bin"), std::runtime_error);
}

TEST(Serialize, BadMagicThrows) {
  const std::string path = temp_path("ftpim_badmagic.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[16] = "not a ckpt!";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  EXPECT_THROW(load_state_dict(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Serialize, TruncatedFileThrows) {
  StateDict state;
  state.emplace("w", testing::random_tensor(Shape{64}, 4));
  const std::string path = temp_path("ftpim_trunc.bin");
  save_state_dict(state, path);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  EXPECT_THROW(load_state_dict(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Serialize, ZeroElementTensorsRoundTrip) {
  // A zero-length dimension is legal (e.g. an empty freeze-mask table):
  // the entry keeps its shape through a round-trip and carries no payload.
  StateDict state;
  state.emplace("empty_vec", Tensor(Shape{0}));
  state.emplace("empty_mat", Tensor(Shape{3, 0, 5}));
  state.emplace("regular", testing::random_tensor(Shape{2, 2}, 8));
  const std::string path = temp_path("ftpim_zeroelem.bin");
  save_state_dict(state, path);
  const StateDict loaded = load_state_dict(path);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.at("empty_vec").shape(), (Shape{0}));
  EXPECT_EQ(loaded.at("empty_vec").numel(), 0);
  EXPECT_EQ(loaded.at("empty_mat").shape(), (Shape{3, 0, 5}));
  EXPECT_EQ(loaded.at("empty_mat").numel(), 0);
  EXPECT_TRUE(loaded.at("regular").allclose(state.at("regular"), 0.0f, 0.0f));
  std::filesystem::remove(path);
}

TEST(Serialize, EncodeDecodeBytesMatchFileFormat) {
  // encode_state_dict is the chunk-payload form of the on-disk format:
  // decoding the encoded bytes must reproduce the dict bit-exactly.
  StateDict state;
  state.emplace("a", testing::random_tensor(Shape{5}, 6));
  state.emplace("b", Tensor(Shape{0, 2}));
  const std::vector<std::uint8_t> bytes = encode_state_dict(state);
  ByteReader in(bytes, "test");
  const StateDict decoded = decode_state_dict(in);
  in.expect_done();
  EXPECT_EQ(encode_state_dict(decoded), bytes);
}

TEST(Serialize, EmptyDictEncodesToCountOnly) {
  const std::vector<std::uint8_t> bytes = encode_state_dict({});
  EXPECT_EQ(bytes.size(), 8u);  // just the u64 entry count
  ByteReader in(bytes, "test");
  EXPECT_TRUE(decode_state_dict(in).empty());
}

TEST(Serialize, PreservesRank0AndHighRank) {
  StateDict state;
  state.emplace("scalar", Tensor(Shape{}, std::vector<float>{3.25f}));
  state.emplace("rank4", testing::random_tensor(Shape{2, 3, 4, 5}, 5));
  const std::string path = temp_path("ftpim_ranks.bin");
  save_state_dict(state, path);
  const StateDict loaded = load_state_dict(path);
  EXPECT_EQ(loaded.at("scalar").rank(), 0u);
  EXPECT_FLOAT_EQ(loaded.at("scalar")[0], 3.25f);
  EXPECT_EQ(loaded.at("rank4").shape(), (Shape{2, 3, 4, 5}));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ftpim
