// Binary serialization of named-tensor state dicts.
//
// Entry encoding (little-endian), the payload of the MODL and OPTM chunks of
// the FTCK checkpoint container — the one on-disk form of a state dict:
//   u64 entry_count |
//   per entry: u32 name_len, bytes name, u32 rank, i64 dims..., f32 data...
//
// Float payloads are raw IEEE-754 bytes: a round trip is bit-exact, which the
// exact-resume guarantee (DESIGN.md §10) depends on.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/tensor/tensor.hpp"

namespace ftpim {

class ByteWriter;
class ByteReader;

using StateDict = std::map<std::string, Tensor>;

/// Appends the headerless entry encoding of `state` to `out`.
void encode_state_dict(const StateDict& state, ByteWriter& out);

/// Convenience: encode into a fresh byte vector.
[[nodiscard]] std::vector<std::uint8_t> encode_state_dict(const StateDict& state);

/// Parses the entry encoding; throws CheckpointError (kTruncated/kFormat,
/// tagged with the reader's context) on malformed input.
[[nodiscard]] StateDict decode_state_dict(ByteReader& in);

}  // namespace ftpim
