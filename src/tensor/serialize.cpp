#include "src/tensor/serialize.hpp"

#include <cstring>

#include "src/common/checkpoint.hpp"

namespace ftpim {
namespace {

// Tensor names/shapes are bounded in practice; a cap turns a corrupted length
// field into a format error instead of a multi-GB allocation.
constexpr std::uint64_t kMaxEntries = 1u << 24;
constexpr std::uint32_t kMaxNameLen = 1u << 16;
constexpr std::uint32_t kMaxRank = 16;

}  // namespace

void encode_state_dict(const StateDict& state, ByteWriter& out) {
  out.u64(state.size());
  for (const auto& [name, tensor] : state) {
    out.str(name);
    out.u32(static_cast<std::uint32_t>(tensor.rank()));
    for (const std::int64_t d : tensor.shape()) out.i64(d);
    out.raw(tensor.data(), static_cast<std::size_t>(tensor.numel()) * sizeof(float));
  }
}

std::vector<std::uint8_t> encode_state_dict(const StateDict& state) {
  ByteWriter out;
  encode_state_dict(state, out);
  return out.take();
}

StateDict decode_state_dict(ByteReader& in) {
  const std::uint64_t count = in.u64();
  if (count > kMaxEntries) {
    throw CheckpointError(CheckpointErrorKind::kFormat, "",
                          "state dict declares " + std::to_string(count) + " entries");
  }
  StateDict state;
  for (std::uint64_t e = 0; e < count; ++e) {
    const std::string name = in.str();
    if (name.size() > kMaxNameLen) {
      throw CheckpointError(CheckpointErrorKind::kFormat, "", "oversized tensor name");
    }
    const std::uint32_t rank = in.u32();
    if (rank > kMaxRank) {
      throw CheckpointError(CheckpointErrorKind::kFormat, "",
                            "tensor '" + name + "' declares rank " + std::to_string(rank));
    }
    Shape shape(rank);
    for (auto& d : shape) {
      d = in.i64();
      if (d < 0) {
        throw CheckpointError(CheckpointErrorKind::kFormat, "",
                              "tensor '" + name + "' has a negative dimension");
      }
    }
    Tensor tensor(shape);
    const std::size_t payload = static_cast<std::size_t>(tensor.numel()) * sizeof(float);
    const std::uint8_t* bytes = in.take_bytes(payload);
    if (payload > 0) std::memcpy(tensor.data(), bytes, payload);
    if (!state.emplace(std::move(name), std::move(tensor)).second) {
      throw CheckpointError(CheckpointErrorKind::kFormat, "", "duplicate state dict entry");
    }
  }
  return state;
}

}  // namespace ftpim
