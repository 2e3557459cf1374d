#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/checkpoint.hpp"
#include "src/tensor/serialize.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

/// encode -> decode, requiring the decoder to consume every byte and the
/// decoded dict to re-encode to the same bytes.
StateDict round_trip(const StateDict& state) {
  const std::vector<std::uint8_t> bytes = encode_state_dict(state);
  ByteReader in(bytes, "state dict");
  StateDict back = decode_state_dict(in);
  in.expect_done();
  EXPECT_EQ(encode_state_dict(back), bytes);
  return back;
}

TEST(Serialize, RoundTripsStateDict) {
  StateDict state;
  state.emplace("layer0.weight", testing::random_tensor(Shape{4, 7}, 1));
  state.emplace("layer0.bias", testing::random_tensor(Shape{4}, 2));
  state.emplace("bn.running_mean", testing::random_tensor(Shape{16}, 3));
  const StateDict loaded = round_trip(state);
  ASSERT_EQ(loaded.size(), state.size());
  for (const auto& [name, tensor] : state) {
    const auto it = loaded.find(name);
    ASSERT_NE(it, loaded.end()) << name;
    EXPECT_TRUE(it->second.allclose(tensor, 0.0f, 0.0f)) << name;
  }
}

TEST(Serialize, EmptyDictRoundTrips) { EXPECT_TRUE(round_trip({}).empty()); }

TEST(Serialize, TruncatedEncodingThrows) {
  StateDict state;
  state.emplace("w", testing::random_tensor(Shape{64}, 4));
  const std::vector<std::uint8_t> bytes = encode_state_dict(state);
  const std::vector<std::uint8_t> half(bytes.begin(),
                                       bytes.begin() + static_cast<std::ptrdiff_t>(bytes.size() / 2));
  ByteReader in(half, "state dict");
  EXPECT_THROW((void)decode_state_dict(in), CheckpointError);
}

TEST(Serialize, ZeroElementTensorsRoundTrip) {
  // A zero-length dimension is legal (e.g. an empty freeze-mask table):
  // the entry keeps its shape through a round-trip and carries no payload.
  StateDict state;
  state.emplace("empty_vec", Tensor(Shape{0}));
  state.emplace("empty_mat", Tensor(Shape{3, 0, 5}));
  state.emplace("regular", testing::random_tensor(Shape{2, 2}, 8));
  const StateDict loaded = round_trip(state);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.at("empty_vec").shape(), (Shape{0}));
  EXPECT_EQ(loaded.at("empty_vec").numel(), 0);
  EXPECT_EQ(loaded.at("empty_mat").shape(), (Shape{3, 0, 5}));
  EXPECT_EQ(loaded.at("empty_mat").numel(), 0);
  EXPECT_TRUE(loaded.at("regular").allclose(state.at("regular"), 0.0f, 0.0f));
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
  const StateDict loaded = round_trip(state);
  EXPECT_EQ(loaded.at("scalar").rank(), 0u);
  EXPECT_FLOAT_EQ(loaded.at("scalar")[0], 3.25f);
  EXPECT_EQ(loaded.at("rank4").shape(), (Shape{2, 3, 4, 5}));
}

}  // namespace
}  // namespace ftpim
