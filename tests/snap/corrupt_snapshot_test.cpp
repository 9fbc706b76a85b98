// Fail-closed battery for the snapshot reader: every way a file can be
// damaged — truncation at any level, a flipped byte in every section,
// a wrong magic, a version other than the reader's, a stored-CRC flip, a
// re-checksummed count larger than its section — must surface as a typed
// snap::SnapshotError.  Framing and CRC damage must also leave the
// simulation untouched (the reader validates the whole file before any
// state is applied, so the same object can still load a good file
// afterwards).  The suite also runs under ASan/UBSan in CI: a malformed
// length that slipped past validation would trip the sanitizers here.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "../sim/sim_fingerprints.h"
#include "snap/snapshot.h"

namespace dsf {
namespace {

using simtest::fingerprint;

olap::OlapConfig tiny_olap() {
  olap::OlapConfig c;
  c.num_peers = 16;
  c.num_chunks = 1'200;
  c.num_regions = 6;
  c.cache_capacity = 100;
  c.sim_hours = 0.2;
  c.warmup_hours = 0.05;
  c.seed = 21;
  return c;
}

std::vector<unsigned char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::vector<char> raw{std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>()};
  return {raw.begin(), raw.end()};
}

void spit(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::uint32_t read_u32(const std::vector<unsigned char>& b, std::size_t at) {
  return static_cast<std::uint32_t>(b[at]) |
         (static_cast<std::uint32_t>(b[at + 1]) << 8) |
         (static_cast<std::uint32_t>(b[at + 2]) << 16) |
         (static_cast<std::uint32_t>(b[at + 3]) << 24);
}

std::uint64_t read_u64(const std::vector<unsigned char>& b, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | static_cast<std::uint64_t>(b[at + static_cast<std::size_t>(i)]);
  return v;
}

/// One section frame as laid out on disk (u32 id, u64 length, u32 crc,
/// payload).
struct Frame {
  std::uint32_t id = 0;
  std::size_t crc_offset = 0;
  std::size_t payload_offset = 0;
  std::size_t payload_length = 0;
};

std::vector<Frame> parse_frames(const std::vector<unsigned char>& bytes) {
  std::vector<Frame> frames;
  std::size_t at = 12;  // 8-byte magic + u32 version
  while (at < bytes.size()) {
    Frame f;
    f.id = read_u32(bytes, at);
    f.payload_length = static_cast<std::size_t>(read_u64(bytes, at + 4));
    f.crc_offset = at + 12;
    f.payload_offset = at + 16;
    frames.push_back(f);
    at = f.payload_offset + f.payload_length;
  }
  EXPECT_EQ(at, bytes.size()) << "section frames must tile the file exactly";
  return frames;
}

class CorruptSnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Per-process filename: ctest runs each case as its own process, and
    // a shared path would let one process's teardown delete the good file
    // from under another's fixture mid-read.
    good_path_ = new std::string(::testing::TempDir() + "dsf_corrupt_good_" +
                                 std::to_string(::getpid()) + ".snap");
    olap::OlapSim saver(tiny_olap());
    saver.request_snapshot_save(*good_path_, 60.0);
    oracle_fp_ = fingerprint(saver.run()).value();
    good_bytes_ = new std::vector<unsigned char>(slurp(*good_path_));
    ASSERT_GT(good_bytes_->size(), 12u);
  }

  static void TearDownTestSuite() {
    std::remove(good_path_->c_str());
    delete good_path_;
    delete good_bytes_;
    good_path_ = nullptr;
    good_bytes_ = nullptr;
  }

  /// Writes `bytes` to a scratch file and expects load_snapshot to throw
  /// SnapshotError — then proves the failed attempt mutated nothing by
  /// loading the good file into the SAME simulation and matching the
  /// resumed fingerprint against the straight-through oracle.
  void expect_rejected(const std::vector<unsigned char>& bytes,
                       const std::string& label) {
    const std::string path = ::testing::TempDir() + "dsf_corrupt_" + label +
                             "_" + std::to_string(::getpid()) + ".snap";
    spit(path, bytes);
    olap::OlapSim sim(tiny_olap());
    EXPECT_THROW(sim.load_snapshot(path), snap::SnapshotError) << label;
    EXPECT_FALSE(sim.resumed()) << label;
    sim.load_snapshot(*good_path_);
    EXPECT_EQ(oracle_fp_, fingerprint(sim.run()).value())
        << label << ": the rejected load left partial state behind";
    std::remove(path.c_str());
  }

  static std::string* good_path_;
  static std::vector<unsigned char>* good_bytes_;
  static std::uint64_t oracle_fp_;
};

std::string* CorruptSnapshotTest::good_path_ = nullptr;
std::vector<unsigned char>* CorruptSnapshotTest::good_bytes_ = nullptr;
std::uint64_t CorruptSnapshotTest::oracle_fp_ = 0;

TEST_F(CorruptSnapshotTest, WrongMagic) {
  auto bytes = *good_bytes_;
  bytes[0] ^= 0xFF;
  expect_rejected(bytes, "magic");
}

TEST_F(CorruptSnapshotTest, FutureVersionIsRejectedForward) {
  // A newer writer's file and an older one (the previous format) are both
  // refused, never parsed.
  for (const std::uint32_t version : {snap::kVersion + 1, snap::kVersion - 1}) {
    auto bytes = *good_bytes_;
    for (std::size_t i = 0; i < 4; ++i)  // version u32 little-endian
      bytes[8 + i] = static_cast<unsigned char>(version >> (8 * i));
    expect_rejected(bytes, "version" + std::to_string(version));
  }
}

TEST_F(CorruptSnapshotTest, TruncatedHeader) {
  auto bytes = *good_bytes_;
  bytes.resize(7);
  expect_rejected(bytes, "header");
}

TEST_F(CorruptSnapshotTest, TruncatedSectionFrame) {
  auto bytes = *good_bytes_;
  bytes.resize(12 + 5);  // mid-frame: id present, length cut short
  expect_rejected(bytes, "frame");
}

TEST_F(CorruptSnapshotTest, TruncatedPayload) {
  const auto frames = parse_frames(*good_bytes_);
  ASSERT_FALSE(frames.empty());
  auto bytes = *good_bytes_;
  bytes.resize(frames.back().payload_offset + frames.back().payload_length / 2);
  expect_rejected(bytes, "payload");
}

TEST_F(CorruptSnapshotTest, TruncatedLastByte) {
  auto bytes = *good_bytes_;
  bytes.pop_back();
  expect_rejected(bytes, "lastbyte");
}

TEST_F(CorruptSnapshotTest, FlippedByteInEverySection) {
  const auto frames = parse_frames(*good_bytes_);
  ASSERT_GE(frames.size(), 5u) << "expected all five v1 sections";
  for (const Frame& f : frames) {
    SCOPED_TRACE("section " + std::to_string(f.id));
    ASSERT_GT(f.payload_length, 0u);
    auto bytes = *good_bytes_;
    bytes[f.payload_offset + f.payload_length / 2] ^= 0x01;
    expect_rejected(bytes, "flip_s" + std::to_string(f.id));
  }
}

TEST_F(CorruptSnapshotTest, FlippedStoredCrc) {
  const auto frames = parse_frames(*good_bytes_);
  ASSERT_FALSE(frames.empty());
  auto bytes = *good_bytes_;
  bytes[frames.front().crc_offset] ^= 0x01;
  expect_rejected(bytes, "crc");
}

TEST_F(CorruptSnapshotTest, InflatedSectionLength) {
  // A length that points past end-of-file must be caught by the framing
  // check, never by reading out of bounds (sanitizer-audited in CI).
  const auto frames = parse_frames(*good_bytes_);
  ASSERT_FALSE(frames.empty());
  auto bytes = *good_bytes_;
  const std::size_t len_at = frames.back().crc_offset - 8;
  for (std::size_t i = 0; i < 8; ++i) bytes[len_at + i] = 0xFF;
  expect_rejected(bytes, "length");
}

TEST_F(CorruptSnapshotTest, OversizedCountWithValidCrcIsRejectedTyped) {
  // Damage the CRC cannot see: a count rewritten to 2^61 with the section
  // checksum recomputed.  The pending-event count opens the events
  // section, and peer 0's cache size opens the olap domain section.  Both
  // must fail typed before they size an allocation.  The error surfaces
  // while state is being applied, so each attempt uses a fresh simulation.
  const auto frames = parse_frames(*good_bytes_);
  for (const snap::SectionId id :
       {snap::SectionId::kEvents, snap::SectionId::kDomain}) {
    SCOPED_TRACE("section " + std::to_string(static_cast<std::uint32_t>(id)));
    const Frame* f = nullptr;
    for (const Frame& candidate : frames)
      if (candidate.id == static_cast<std::uint32_t>(id)) f = &candidate;
    ASSERT_NE(f, nullptr);
    ASSERT_GE(f->payload_length, 8u);
    auto bytes = *good_bytes_;
    const std::uint64_t count = std::uint64_t{1} << 61;
    for (std::size_t i = 0; i < 8; ++i)
      bytes[f->payload_offset + i] = static_cast<unsigned char>(count >> (8 * i));
    const std::uint32_t crc =
        snap::crc32(bytes.data() + f->payload_offset, f->payload_length);
    for (std::size_t i = 0; i < 4; ++i)
      bytes[f->crc_offset + i] = static_cast<unsigned char>(crc >> (8 * i));

    const std::string path = ::testing::TempDir() + "dsf_corrupt_count_" +
                             std::to_string(::getpid()) + ".snap";
    spit(path, bytes);
    olap::OlapSim sim(tiny_olap());
    EXPECT_THROW(sim.load_snapshot(path), snap::SnapshotError);
    std::remove(path.c_str());
  }
}

TEST_F(CorruptSnapshotTest, ScenarioMismatch) {
  // An intact olap snapshot is still rejected by a webcache simulation:
  // the identity section pins scenario name, population and seed.
  webcache::WebCacheConfig cfg = simtest::golden_webcache_config();
  webcache::WebCacheSim sim(cfg);
  EXPECT_THROW(sim.load_snapshot(*good_path_), snap::SnapshotError);
}

TEST_F(CorruptSnapshotTest, ConfigMismatch) {
  olap::OlapConfig cfg = tiny_olap();
  cfg.num_peers = 24;  // same scenario, different population
  olap::OlapSim wrong_pop(cfg);
  EXPECT_THROW(wrong_pop.load_snapshot(*good_path_), snap::SnapshotError);

  olap::OlapConfig seed_cfg = tiny_olap();
  seed_cfg.seed = 22;  // different master seed: RNG replay would diverge
  olap::OlapSim wrong_seed(seed_cfg);
  EXPECT_THROW(wrong_seed.load_snapshot(*good_path_), snap::SnapshotError);
}

TEST_F(CorruptSnapshotTest, MissingFile) {
  olap::OlapSim sim(tiny_olap());
  EXPECT_THROW(sim.load_snapshot(::testing::TempDir() + "does_not_exist.snap"),
               snap::SnapshotError);
}

}  // namespace
}  // namespace dsf
