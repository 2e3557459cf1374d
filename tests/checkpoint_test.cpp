// Checkpoint subsystem: CRC32C, atomic file replacement, FTCK container
// framing, TrainingCheckpoint round-trip, retention policy, and the
// crash-injection sweep — every truncation and bit flip of a valid
// checkpoint must surface as a typed CheckpointError, never a crash or a
// silently wrong load. Also proves tools/ftpim_ckpt.py agrees with the C++
// loader on what is and is not a valid file.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/atomic_file.hpp"
#include "src/common/checkpoint.hpp"
#include "src/common/crc32c.hpp"
#include "src/common/rng.hpp"
#include "src/tensor/serialize.hpp"
#include "src/core/train_checkpoint.hpp"
#include "src/reram/defect_map.hpp"
#include "src/tensor/tensor.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

namespace fs = std::filesystem;

using testing::scratch_dir;

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// --- CRC32C ------------------------------------------------------------------

TEST(Crc32c, KnownVector) {
  // The canonical CRC32C check value (RFC 3720 appendix B.4 style vector).
  const char* msg = "123456789";
  EXPECT_EQ(crc32c(msg, 9), 0xE3069283u);
}

TEST(Crc32c, EmptyInputIsZero) { EXPECT_EQ(crc32c("", 0), 0u); }

TEST(Crc32c, StreamingMatchesOneShot) {
  Rng rng(71);
  std::vector<std::uint8_t> data(1027);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  const std::uint32_t one_shot = crc32c(data.data(), data.size());
  std::uint32_t crc = crc32c_init();
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t n = std::min<std::size_t>(1 + rng.uniform_int(97), data.size() - pos);
    crc = crc32c_update(crc, data.data() + pos, n);
    pos += n;
  }
  EXPECT_EQ(crc32c_finish(crc), one_shot);
}

TEST(Crc32c, DetectsSingleBitFlips) {
  std::vector<std::uint8_t> data = {0xde, 0xad, 0xbe, 0xef, 0x01, 0x02};
  const std::uint32_t clean = crc32c(data.data(), data.size());
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(crc32c(data.data(), data.size()), clean);
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

// --- AtomicFileWriter --------------------------------------------------------

TEST(AtomicFile, CommitCreatesExactContent) {
  const fs::path dir = scratch_dir("atomic_commit");
  const fs::path target = dir / "out.bin";
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  {
    AtomicFileWriter w(target.string());
    EXPECT_FALSE(fs::exists(target));  // nothing under the final name yet
    w.write(payload);
    w.commit();
    EXPECT_TRUE(w.committed());
  }
  EXPECT_EQ(read_file(target), payload);
  EXPECT_FALSE(fs::exists(target.string() + ".tmp"));
}

TEST(AtomicFile, AbortLeavesNoFile) {
  const fs::path dir = scratch_dir("atomic_abort");
  const fs::path target = dir / "out.bin";
  {
    AtomicFileWriter w(target.string());
    w.write("junk", 4);
    // no commit: destructor must discard the temp file
  }
  EXPECT_FALSE(fs::exists(target));
  EXPECT_FALSE(fs::exists(target.string() + ".tmp"));
}

TEST(AtomicFile, OverwriteReplacesPreviousContent) {
  const fs::path dir = scratch_dir("atomic_overwrite");
  const fs::path target = dir / "out.bin";
  {
    AtomicFileWriter w(target.string());
    w.write("old-old-old", 11);
    w.commit();
  }
  {
    AtomicFileWriter w(target.string());
    w.write("new", 3);
    w.commit();
  }
  const auto bytes = read_file(target);
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "new");
}

TEST(AtomicFile, AbortedRewriteKeepsOldContent) {
  const fs::path dir = scratch_dir("atomic_abort_keep");
  const fs::path target = dir / "out.bin";
  {
    AtomicFileWriter w(target.string());
    w.write("good", 4);
    w.commit();
  }
  {
    AtomicFileWriter w(target.string());
    w.write("partial-garbage", 15);
    // crash before commit
  }
  const auto bytes = read_file(target);
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "good");
}

TEST(AtomicFile, UnwritableDirectoryThrowsIo) {
  try {
    AtomicFileWriter w("/nonexistent-dir-ftpim/x.bin");
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kIo);
  }
}

// --- FTCK container ----------------------------------------------------------

CheckpointErrorKind parse_kind(const std::vector<std::uint8_t>& image) {
  try {
    CheckpointReader reader(image, "test-image");
  } catch (const CheckpointError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "image parsed cleanly";
  return CheckpointErrorKind::kIo;
}

std::vector<std::uint8_t> two_chunk_image() {
  CheckpointWriter writer;
  writer.add_chunk("AAAA", {1, 2, 3});
  writer.add_chunk("BBBB", {4, 5, 6, 7, 8});
  return writer.serialize();
}

TEST(CheckpointContainer, RoundTripsThroughFile) {
  const fs::path dir = scratch_dir("container_roundtrip");
  const fs::path path = dir / "c.ftck";
  CheckpointWriter writer;
  writer.add_chunk("AAAA", {1, 2, 3});
  writer.add_chunk("EMPT", {});
  writer.write(path.string());

  const CheckpointReader reader(path.string());
  EXPECT_EQ(reader.version(), kCheckpointFormatVersion);
  ASSERT_EQ(reader.chunks().size(), 2u);
  EXPECT_EQ(reader.chunk("AAAA"), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(reader.chunk("EMPT").empty());
  EXPECT_FALSE(reader.has_chunk("ZZZZ"));
}

TEST(CheckpointContainer, MissingFileIsKMissing) {
  try {
    CheckpointReader reader("/no/such/file.ftck");
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kMissing);
  }
}

TEST(CheckpointContainer, MissingChunkNamesTheTag) {
  const CheckpointReader reader(two_chunk_image(), "mem");
  try {
    (void)reader.chunk("CCCC");
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kMissingChunk);
    EXPECT_EQ(e.chunk(), "CCCC");
  }
}

TEST(CheckpointContainer, BadMagicIsDetected) {
  auto image = two_chunk_image();
  image[0] = 'X';
  EXPECT_EQ(parse_kind(image), CheckpointErrorKind::kBadMagic);
}

TEST(CheckpointContainer, FutureVersionIsSkew) {
  auto image = two_chunk_image();
  image[4] = static_cast<std::uint8_t>(kCheckpointFormatVersion + 1);
  EXPECT_EQ(parse_kind(image), CheckpointErrorKind::kVersionSkew);
}

TEST(CheckpointContainer, VersionZeroIsFormatError) {
  auto image = two_chunk_image();
  image[4] = 0;
  EXPECT_EQ(parse_kind(image), CheckpointErrorKind::kFormat);
}

TEST(CheckpointContainer, PayloadBitFlipNamesTheChunk) {
  auto image = two_chunk_image();
  // First chunk payload starts after magic(4)+version(4)+tag(4)+len(8).
  image[20] ^= 0x10;
  try {
    CheckpointReader reader(image, "mem");
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kChecksumMismatch);
    EXPECT_EQ(e.chunk(), "AAAA");
  }
}

TEST(CheckpointContainer, NonPrintableTagIsFormatError) {
  auto image = two_chunk_image();
  image[8] = 0x01;  // first chunk tag byte
  EXPECT_EQ(parse_kind(image), CheckpointErrorKind::kFormat);
}

TEST(CheckpointContainer, TrailingBytesAreFormatError) {
  auto image = two_chunk_image();
  image.push_back(0);
  EXPECT_EQ(parse_kind(image), CheckpointErrorKind::kFormat);
}

TEST(CheckpointContainer, EveryTruncationIsTyped) {
  const auto image = two_chunk_image();
  for (std::size_t len = 0; len < image.size(); ++len) {
    const std::vector<std::uint8_t> prefix(image.begin(),
                                           image.begin() + static_cast<std::ptrdiff_t>(len));
    try {
      CheckpointReader reader(prefix, "prefix");
      FAIL() << "prefix of " << len << " bytes parsed cleanly";
    } catch (const CheckpointError&) {
      // typed failure — exactly what a torn read must produce
    }
  }
}

TEST(CheckpointContainer, UnknownChunksAreTolerated) {
  // Forward compatibility: additive chunks must not break older readers.
  CheckpointWriter writer;
  writer.add_chunk("AAAA", {1});
  writer.add_chunk("XFUT", {9, 9, 9});
  const CheckpointReader reader(writer.serialize(), "mem");
  EXPECT_TRUE(reader.has_chunk("XFUT"));
  EXPECT_EQ(reader.chunk("AAAA"), std::vector<std::uint8_t>{1});
}

TEST(ByteCodec, ScalarRoundTripAndTruncation) {
  ByteWriter w;
  w.u8(7);
  w.u32(0xDEADBEEFu);
  w.u64(1ull << 60);
  w.i64(-12345);
  w.f32(1.5f);
  w.f64(-2.25);
  w.str("hello");
  const std::vector<std::uint8_t> bytes = w.bytes();

  ByteReader r(bytes, "T");
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 1ull << 60);
  EXPECT_EQ(r.i64(), -12345);
  EXPECT_EQ(r.f32(), 1.5f);
  EXPECT_EQ(r.f64(), -2.25);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.done());
  EXPECT_NO_THROW(r.expect_done());

  ByteReader short_reader(bytes.data(), 2, "T");
  try {
    (void)short_reader.u32();
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kTruncated);
    EXPECT_EQ(e.chunk(), "T");
  }

  ByteReader trailing(bytes, "T");
  (void)trailing.u8();
  EXPECT_THROW(trailing.expect_done(), CheckpointError);
}

// --- TrainingCheckpoint round-trip ------------------------------------------

TrainingCheckpoint sample_checkpoint() {
  TrainingCheckpoint ckpt;
  ckpt.config_echo = {0xca, 0xfe, 0x01};
  ckpt.next_stage = 1;
  ckpt.next_epoch = 2;
  ckpt.rate_sum = 0.125;
  ckpt.rate_count = 40;
  ckpt.stage_rates = {0.005, 0.01};
  ckpt.epoch_losses = {{2.0f, 1.5f, 1.25f}, {1.125f, 1.0f}};

  Tensor w(Shape{2, 3});
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = 0.25f * static_cast<float>(i);
  ckpt.model.emplace("fc.weight", w);
  ckpt.model.emplace("bn.running_mean", Tensor(Shape{3}));
  Tensor v(Shape{2, 3});
  for (std::int64_t i = 0; i < v.numel(); ++i) v[i] = -0.5f * static_cast<float>(i);
  ckpt.optimizer.emplace("velocity/fc.weight", v);

  Rng rng(2024);
  (void)rng.normal();  // populate the Box-Muller cache
  ckpt.rng_streams.emplace_back("dataloader.augment", rng.state());
  return ckpt;
}

/// The image of `ckpt` as older builds wrote it when a device map and an
/// aging config were attached: the same chunks plus DMAP and AGEM.
std::vector<std::uint8_t> image_with_retired_chunks(const TrainingCheckpoint& ckpt,
                                                    const fs::path& dir) {
  const fs::path plain = dir / "plain.ftck";
  save_training_checkpoint(ckpt, plain.string());
  const CheckpointReader reader(plain.string());
  CheckpointWriter writer;
  for (const CheckpointChunk& c : reader.chunks()) writer.add_chunk(c.tag, c.payload);
  Rng map_rng(7);
  ByteWriter dmap;
  DefectMap::sample(256, StuckAtFaultModel(0.05, 0.8), map_rng).encode(dmap);
  writer.add_chunk("DMAP", dmap.take());
  ByteWriter agem;  // p_new_per_interval, interval_batches, sa0_fraction, seed
  agem.f64(1e-4);
  agem.i64(32);
  agem.f64(kPaperSa0Fraction);
  agem.u64(1234);
  writer.add_chunk("AGEM", agem.take());
  return writer.serialize();
}

void expect_equal(const TrainingCheckpoint& a, const TrainingCheckpoint& b) {
  EXPECT_EQ(a.config_echo, b.config_echo);
  EXPECT_EQ(a.next_stage, b.next_stage);
  EXPECT_EQ(a.next_epoch, b.next_epoch);
  EXPECT_EQ(a.rate_sum, b.rate_sum);
  EXPECT_EQ(a.rate_count, b.rate_count);
  EXPECT_EQ(a.stage_rates, b.stage_rates);
  EXPECT_EQ(a.epoch_losses, b.epoch_losses);
  // Bitwise tensor equality via the canonical encoding.
  EXPECT_EQ(encode_state_dict(a.model), encode_state_dict(b.model));
  EXPECT_EQ(encode_state_dict(a.optimizer), encode_state_dict(b.optimizer));
  ASSERT_EQ(a.rng_streams.size(), b.rng_streams.size());
  for (std::size_t i = 0; i < a.rng_streams.size(); ++i) {
    EXPECT_EQ(a.rng_streams[i].first, b.rng_streams[i].first);
    EXPECT_TRUE(a.rng_streams[i].second == b.rng_streams[i].second);
  }
}

TEST(TrainingCheckpointIo, RoundTripsExactly) {
  const fs::path dir = scratch_dir("tc_roundtrip");
  const fs::path path = dir / "c.ftck";
  const TrainingCheckpoint original = sample_checkpoint();
  save_training_checkpoint(original, path.string());
  const TrainingCheckpoint loaded = load_training_checkpoint(path.string());
  expect_equal(original, loaded);
}

TEST(TrainingCheckpointIo, RetiredDmapAndAgemChunksAreSkipped) {
  // Nothing writes the optional DMAP/AGEM chunks any more; files that carry
  // them still load, because the reader skips unknown chunks whose CRC checks.
  const fs::path dir = scratch_dir("tc_retired_chunks");
  const fs::path path = dir / "c.ftck";
  const TrainingCheckpoint original = sample_checkpoint();
  write_file(path, image_with_retired_chunks(original, dir));
  const TrainingCheckpoint loaded = load_training_checkpoint(path.string());
  expect_equal(original, loaded);
}

// --- reram state codecs ------------------------------------------------------

TEST(ReramCodec, DefectMapRoundTripsExactly) {
  Rng rng(404);
  const DefectMap original = DefectMap::sample(512, StuckAtFaultModel(0.08, 0.7), rng);
  ByteWriter w;
  original.encode(w);
  ByteReader r(w.bytes(), "DMAP");
  const DefectMap decoded = DefectMap::decode(r);
  r.expect_done();
  EXPECT_EQ(decoded.cell_count(), original.cell_count());
  ASSERT_EQ(decoded.fault_count(), original.fault_count());
  for (std::size_t i = 0; i < original.faults().size(); ++i) {
    EXPECT_EQ(decoded.faults()[i].cell_index, original.faults()[i].cell_index);
    EXPECT_EQ(decoded.faults()[i].type, original.faults()[i].type);
  }
}

TEST(ReramCodec, EmptyDefectMapRoundTrips) {
  const DefectMap original = DefectMap::empty(64);
  ByteWriter w;
  original.encode(w);
  ByteReader r(w.bytes(), "DMAP");
  const DefectMap decoded = DefectMap::decode(r);
  EXPECT_EQ(decoded.cell_count(), 64);
  EXPECT_EQ(decoded.fault_count(), 0);
}

TEST(ReramCodec, DefectMapDecodeRejectsMalformedInput) {
  // Unsorted fault list: a valid encoding is sorted by cell index, so this
  // can only come from corruption that survived the CRC (or a buggy writer).
  ByteWriter w;
  w.i64(16);  // cell_count
  w.u64(2);   // fault count
  w.i64(9);
  w.u8(1);
  w.i64(3);  // out of order
  w.u8(2);
  ByteReader r(w.bytes(), "DMAP");
  EXPECT_THROW((void)DefectMap::decode(r), CheckpointError);

  // Out-of-range cell index.
  ByteWriter w2;
  w2.i64(4);
  w2.u64(1);
  w2.i64(100);
  w2.u8(1);
  ByteReader r2(w2.bytes(), "DMAP");
  EXPECT_THROW((void)DefectMap::decode(r2), CheckpointError);

  // Invalid fault type.
  ByteWriter w3;
  w3.i64(4);
  w3.u64(1);
  w3.i64(0);
  w3.u8(9);
  ByteReader r3(w3.bytes(), "DMAP");
  EXPECT_THROW((void)DefectMap::decode(r3), CheckpointError);
}

// --- crash injection sweep ---------------------------------------------------

class CheckpointCrashInjection : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = scratch_dir("crash_injection");
    path_ = dir_ / "victim.ftck";
    save_training_checkpoint(sample_checkpoint(), path_.string());
    image_ = read_file(path_);
    ASSERT_GT(image_.size(), 64u);
  }

  /// Writes `image` to a file and expects load_training_checkpoint to reject
  /// it with a typed CheckpointError.
  void expect_rejected(const std::vector<std::uint8_t>& image, const std::string& what) {
    const fs::path mutated = dir_ / "mutated.ftck";
    write_file(mutated, image);
    try {
      (void)load_training_checkpoint(mutated.string());
      ADD_FAILURE() << what << ": corrupted checkpoint loaded cleanly";
    } catch (const CheckpointError&) {
      // typed rejection — required for every corruption mode
    }
  }

  fs::path dir_;
  fs::path path_;
  std::vector<std::uint8_t> image_;
};

TEST_F(CheckpointCrashInjection, SeededTruncationsAreAllRejected) {
  // A kill during a (non-atomic) write would leave a prefix; every prefix
  // must be rejected. Sample seeded offsets plus the boundary cases.
  Rng rng(515151);
  std::vector<std::size_t> offsets = {0, 1, 4, 7, 8, image_.size() - 1, image_.size() - 4};
  for (int i = 0; i < 64; ++i) {
    offsets.push_back(static_cast<std::size_t>(rng.uniform_int(image_.size())));
  }
  for (const std::size_t len : offsets) {
    const std::vector<std::uint8_t> prefix(image_.begin(),
                                           image_.begin() + static_cast<std::ptrdiff_t>(len));
    expect_rejected(prefix, "truncation to " + std::to_string(len));
  }
}

TEST_F(CheckpointCrashInjection, SeededBitFlipsAreAllRejected) {
  Rng rng(626262);
  for (int i = 0; i < 192; ++i) {
    const std::size_t byte = static_cast<std::size_t>(rng.uniform_int(image_.size()));
    const int bit = static_cast<int>(rng.uniform_int(8));
    std::vector<std::uint8_t> mutated = image_;
    mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
    expect_rejected(mutated,
                    "bit flip at byte " + std::to_string(byte) + " bit " + std::to_string(bit));
  }
}

TEST_F(CheckpointCrashInjection, FutureVersionIsRejected) {
  std::vector<std::uint8_t> mutated = image_;
  mutated[4] = static_cast<std::uint8_t>(kCheckpointFormatVersion + 3);
  const fs::path path = dir_ / "future.ftck";
  write_file(path, mutated);
  try {
    (void)load_training_checkpoint(path.string());
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kVersionSkew);
  }
}

// --- filenames, latest, retention -------------------------------------------

TEST(CheckpointFiles, FilenameIsCanonical) {
  EXPECT_EQ(checkpoint_filename(0), "ckpt-000000.ftck");
  EXPECT_EQ(checkpoint_filename(42), "ckpt-000042.ftck");
  EXPECT_EQ(checkpoint_filename(123456), "ckpt-123456.ftck");
}

TEST(CheckpointFiles, LatestPicksHighestEpoch) {
  const fs::path dir = scratch_dir("latest");
  EXPECT_EQ(latest_checkpoint(dir.string()), "");
  write_file(dir / "ckpt-000002.ftck", {1});
  write_file(dir / "ckpt-000010.ftck", {1});
  write_file(dir / "ckpt-000003.ftck", {1});
  write_file(dir / "notes.txt", {1});
  write_file(dir / "ckpt-00000x.ftck", {1});  // non-numeric: ignored
  EXPECT_EQ(latest_checkpoint(dir.string()), (dir / "ckpt-000010.ftck").string());
  EXPECT_EQ(latest_checkpoint((dir / "missing").string()), "");
}

TEST(CheckpointFiles, RetentionKeepsWindowAndBest) {
  const fs::path dir = scratch_dir("retention");
  auto make = [&](int epoch) {
    const fs::path p = dir / checkpoint_filename(epoch);
    write_file(p, {static_cast<std::uint8_t>(epoch)});
    return p.string();
  };
  CheckpointRetention retention(/*keep_last=*/2, /*keep_best=*/true);
  // Metrics peak at epoch 2 and then decay: epoch 2 must stay pinned.
  retention.admit(make(1), 0.10);
  retention.admit(make(2), 0.90);
  retention.admit(make(3), 0.50);
  retention.admit(make(4), 0.40);
  retention.admit(make(5), 0.30);
  EXPECT_EQ(retention.best_path(), (dir / checkpoint_filename(2)).string());
  EXPECT_FALSE(fs::exists(dir / checkpoint_filename(1)));
  EXPECT_TRUE(fs::exists(dir / checkpoint_filename(2)));  // pinned best
  EXPECT_FALSE(fs::exists(dir / checkpoint_filename(3)));
  EXPECT_TRUE(fs::exists(dir / checkpoint_filename(4)));
  EXPECT_TRUE(fs::exists(dir / checkpoint_filename(5)));
}

TEST(CheckpointFiles, RetentionDeletesDethronedBest) {
  const fs::path dir = scratch_dir("retention_dethrone");
  auto make = [&](int epoch) {
    const fs::path p = dir / checkpoint_filename(epoch);
    write_file(p, {static_cast<std::uint8_t>(epoch)});
    return p.string();
  };
  CheckpointRetention retention(/*keep_last=*/1, /*keep_best=*/true);
  retention.admit(make(1), 0.5);
  retention.admit(make(2), 0.1);  // evicts nothing yet: 1 is pinned best
  EXPECT_TRUE(fs::exists(dir / checkpoint_filename(1)));
  retention.admit(make(3), 0.9);  // dethrones 1; 1 is outside the window
  EXPECT_EQ(retention.best_path(), (dir / checkpoint_filename(3)).string());
  EXPECT_FALSE(fs::exists(dir / checkpoint_filename(1)));
  EXPECT_FALSE(fs::exists(dir / checkpoint_filename(2)));
  EXPECT_TRUE(fs::exists(dir / checkpoint_filename(3)));
}

// --- Python inspector agreement ---------------------------------------------

bool python_available() {
  return std::system("python3 -c 'pass' > /dev/null 2>&1") == 0;
}

int run_ckpt_tool(const std::string& args) {
  const std::string cmd = "python3 " + std::string(FTPIM_REPO_ROOT) +
                          "/tools/ftpim_ckpt.py " + args + " > /dev/null 2>&1";
  return std::system(cmd.c_str());
}

TEST(CkptTool, AgreesWithCxxLoaderOnValidity) {
  if (!python_available()) GTEST_SKIP() << "python3 not available";
  const fs::path dir = scratch_dir("pytool");
  const fs::path good = dir / "good.ftck";
  save_training_checkpoint(sample_checkpoint(), good.string());

  // Valid file: C++ loads it, the tool verifies and dumps it.
  EXPECT_NO_THROW((void)load_training_checkpoint(good.string()));
  EXPECT_EQ(run_ckpt_tool("verify " + good.string()), 0);
  EXPECT_EQ(run_ckpt_tool("dump " + good.string()), 0);
  EXPECT_EQ(run_ckpt_tool("diff " + good.string() + " " + good.string()), 0);

  // A file with the retired DMAP/AGEM chunks: both sides accept it.
  const fs::path retired = dir / "retired.ftck";
  write_file(retired, image_with_retired_chunks(sample_checkpoint(), dir));
  EXPECT_NO_THROW((void)load_training_checkpoint(retired.string()));
  EXPECT_EQ(run_ckpt_tool("verify " + retired.string()), 0);
  EXPECT_EQ(run_ckpt_tool("dump " + retired.string()), 0);

  // Corrupted files: both sides must reject, for a seeded set of mutations.
  const auto image = read_file(good);
  Rng rng(737373);
  for (int i = 0; i < 12; ++i) {
    std::vector<std::uint8_t> mutated = image;
    if (i % 2 == 0) {
      mutated.resize(1 + rng.uniform_int(image.size() - 1));
    } else {
      mutated[rng.uniform_int(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_int(8));
    }
    const fs::path bad = dir / "bad.ftck";
    write_file(bad, mutated);
    EXPECT_THROW((void)load_training_checkpoint(bad.string()), CheckpointError) << "case " << i;
    EXPECT_NE(run_ckpt_tool("verify " + bad.string()), 0) << "case " << i;
  }
}

}  // namespace
}  // namespace ftpim
