// Fail-closed battery for the snapshot reader: every way a file can be
// damaged — truncation at any level, a flipped byte in every section,
// a wrong magic, a version other than the reader's, a stored-CRC flip, a
// re-checksummed count larger than its section — must surface as a typed
// snap::SnapshotError.  Framing and CRC damage must also leave the
// simulation untouched (the reader validates the whole file before any
// state is applied, so the same object can still load a good file
// afterwards).  Damage behind a recomputed CRC — a node id at or above the
// population, a roster position that names someone else, a clock, due
// time or benefit that is not finite, an event record no resumed run can
// schedule, a cache key out of range or repeated, a cache fuller than its
// capacity — must be rejected typed at load, before the first event runs.
// So must an intact file whose recurring schedule another config made:
// it is rejected by the value's name before any state is applied.  The
// suite also runs under ASan/UBSan in CI: a malformed length or id that
// slipped past validation would trip the sanitizers here.

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
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

gnutella::Config tiny_gnutella() {
  gnutella::Config c = simtest::golden_gnutella_config();
  c.sim_hours = 2.0;
  return c;
}

webcache::WebCacheConfig tiny_webcache() {
  webcache::WebCacheConfig c = simtest::golden_webcache_config();
  c.sim_hours = 0.5;
  c.warmup_hours = 0.1;
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

void put_u32(std::vector<unsigned char>& b, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i)
    b[at + i] = static_cast<unsigned char>(v >> (8 * i));
}

void put_u64(std::vector<unsigned char>& b, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i)
    b[at + i] = static_cast<unsigned char>(v >> (8 * i));
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

/// Applies `edit(bytes, payload_offset)` to section `id` and recomputes the
/// section's CRC, so only the reader's checks behind the CRC can catch the
/// damage.
template <typename Edit>
std::vector<unsigned char> rewrite_section(std::vector<unsigned char> bytes,
                                           snap::SectionId id, Edit&& edit) {
  for (const Frame& f : parse_frames(bytes)) {
    if (f.id != static_cast<std::uint32_t>(id)) continue;
    edit(bytes, f.payload_offset);
    put_u32(bytes, f.crc_offset,
            snap::crc32(bytes.data() + f.payload_offset, f.payload_length));
  }
  return bytes;
}

/// Replaces the first LRU cache of a webcache or olap domain section
/// (proxy or peer 0's: u64 n, then n u64 keys in MRU-first order) with
/// `edit(keys)`, then rewrites the section's length and CRC, so a cache of
/// another size still frames correctly.
template <typename Edit>
std::vector<unsigned char> rewrite_first_cache(
    const std::vector<unsigned char>& bytes, Edit&& edit) {
  for (const Frame& f : parse_frames(bytes)) {
    if (f.id != static_cast<std::uint32_t>(snap::SectionId::kDomain)) continue;
    const auto n = static_cast<std::size_t>(read_u64(bytes, f.payload_offset));
    std::vector<std::uint64_t> keys(n);
    for (std::size_t i = 0; i < n; ++i)
      keys[i] = read_u64(bytes, f.payload_offset + 8 + 8 * i);
    edit(keys);
    std::vector<unsigned char> cache(8 + 8 * keys.size());
    put_u64(cache, 0, keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
      put_u64(cache, 8 + 8 * i, keys[i]);
    std::vector<unsigned char> out(bytes.begin(),
                                   bytes.begin() + static_cast<std::ptrdiff_t>(
                                                       f.payload_offset));
    out.insert(out.end(), cache.begin(), cache.end());
    out.insert(out.end(),
               bytes.begin() +
                   static_cast<std::ptrdiff_t>(f.payload_offset + 8 + 8 * n),
               bytes.end());
    const std::size_t length = f.payload_length - 8 * n + 8 * keys.size();
    put_u64(out, f.crc_offset - 8, length);
    put_u32(out, f.crc_offset,
            snap::crc32(out.data() + f.payload_offset, length));
    return out;
  }
  ADD_FAILURE() << "no domain section";
  return bytes;
}

/// Absolute offsets of the fields the gnutella domain checks guard, laid
/// out as Simulation::save_domain writes them: per user u8 online, f64
/// query_due_s, f64 session_due_s, u32 reconfig_count, u32 online_pos;
/// the roster; then per user a stats store (u64 n, n × {u32 peer, f64}),
/// the recent queries (u64 n, n × u64) and u64 recent_pos.
struct GnutellaDomainFields {
  std::vector<std::size_t> query_due;    ///< one per user
  std::vector<std::size_t> session_due;  ///< one per user
  std::vector<std::size_t> online_pos;  ///< on-line users only
  std::vector<std::size_t> stats_peer;  ///< every stats-store entry
  std::vector<std::size_t> recent_pos;  ///< one per user
};

GnutellaDomainFields locate_gnutella_fields(
    const std::vector<unsigned char>& b, std::size_t users) {
  GnutellaDomainFields f;
  std::size_t at = 0;
  for (const Frame& frame : parse_frames(b))
    if (frame.id == static_cast<std::uint32_t>(snap::SectionId::kDomain))
      at = frame.payload_offset;
  for (std::size_t u = 0; u < users; ++u, at += 25) {
    f.query_due.push_back(at + 1);
    f.session_due.push_back(at + 9);
    if (b[at] != 0) f.online_pos.push_back(at + 21);
  }
  at += 8 + 4 * static_cast<std::size_t>(read_u64(b, at));
  for (std::size_t u = 0; u < users; ++u) {
    const std::uint64_t n = read_u64(b, at);
    at += 8;
    for (std::uint64_t i = 0; i < n; ++i, at += 12) f.stats_peer.push_back(at);
    at += 8 + 8 * static_cast<std::size_t>(read_u64(b, at));
    f.recent_pos.push_back(at);
    at += 8;
  }
  return f;
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

    const std::string gnu_path = *good_path_ + ".gnutella";
    gnutella::Simulation gnu_saver(tiny_gnutella());
    gnu_saver.request_snapshot_save(gnu_path, 3600.0);
    gnu_saver.run();
    gnutella_bytes_ = new std::vector<unsigned char>(slurp(gnu_path));
    std::remove(gnu_path.c_str());
  }

  static void TearDownTestSuite() {
    std::remove(good_path_->c_str());
    delete good_path_;
    delete good_bytes_;
    delete gnutella_bytes_;
    good_path_ = nullptr;
    good_bytes_ = nullptr;
    gnutella_bytes_ = nullptr;
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

  /// Expects a fresh `Sim` to reject `bytes` with a SnapshotError whose
  /// message contains `field`.  Damage behind a valid CRC surfaces while
  /// state is applied, so each attempt uses a fresh simulation.
  template <typename Sim, typename Config>
  static void expect_semantic_rejection(const Config& cfg,
                                        const std::vector<unsigned char>& bytes,
                                        const std::string& field) {
    const std::string path = ::testing::TempDir() + "dsf_corrupt_field_" +
                             std::to_string(::getpid()) + ".snap";
    spit(path, bytes);
    Sim sim(cfg);
    try {
      sim.load_snapshot(path);
      ADD_FAILURE() << field << ": the damaged snapshot loaded";
    } catch (const snap::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << "error does not name " << field << ": " << e.what();
    }
    EXPECT_FALSE(sim.resumed());
    std::remove(path.c_str());
  }

  /// Saves a run of `saved` at `at_s`, then expects a fresh simulation of
  /// `resumed` to reject the file with a SnapshotError naming `field`
  /// before it applies any state: the rejecting simulation then runs
  /// exactly as a fresh one does.
  template <typename Sim, typename Config>
  static void expect_schedule_value_rejected(const Config& saved,
                                             const Config& resumed,
                                             double at_s,
                                             const std::string& field) {
    SCOPED_TRACE(field);
    const std::string path = ::testing::TempDir() + "dsf_schedule_" +
                             std::to_string(::getpid()) + ".snap";
    {
      Sim saver(saved);
      saver.request_snapshot_save(path, at_s);
      saver.run();
    }
    Sim sim(resumed);
    try {
      sim.load_snapshot(path);
      ADD_FAILURE() << "a snapshot of another " << field << " loaded";
    } catch (const snap::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(field + " is "), std::string::npos)
          << "error does not name " << field << ": " << e.what();
    }
    EXPECT_FALSE(sim.resumed());
    Sim fresh(resumed);
    EXPECT_EQ(fingerprint(fresh.run()).value(), fingerprint(sim.run()).value())
        << "the rejected load applied state";
    std::remove(path.c_str());
  }

  static std::string* good_path_;
  static std::vector<unsigned char>* good_bytes_;
  static std::vector<unsigned char>* gnutella_bytes_;
  static std::uint64_t oracle_fp_;
};

std::string* CorruptSnapshotTest::good_path_ = nullptr;
std::vector<unsigned char>* CorruptSnapshotTest::good_bytes_ = nullptr;
std::vector<unsigned char>* CorruptSnapshotTest::gnutella_bytes_ = nullptr;
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

TEST_F(CorruptSnapshotTest, OverlayNeighborIdOutOfRange) {
  // add_out/add_in check capacity and duplicates only; an id at or past
  // the population would index every per-node array out of bounds.
  const std::size_t peers = tiny_olap().num_peers;
  for (const std::uint32_t id :
       {static_cast<std::uint32_t>(peers), std::uint32_t{4'000'000'000}}) {
    SCOPED_TRACE(id);
    const auto bytes = rewrite_section(
        *good_bytes_, snap::SectionId::kOverlay,
        [&](std::vector<unsigned char>& b, std::size_t at) {
          // Per node: u32 n_out, the out-list, u32 n_in, the in-list.
          while (read_u32(b, at) == 0) {
            at += 4;
            at += 4 + 4 * static_cast<std::size_t>(read_u32(b, at));
          }
          put_u32(b, at + 4, id);  // the first out-neighbor
        });
    expect_semantic_rejection<olap::OlapSim>(tiny_olap(), bytes,
                                             "overlay neighbor id");
  }
}

TEST_F(CorruptSnapshotTest, StatsStorePeerIdOutOfRange) {
  const std::size_t users = tiny_gnutella().num_users;
  const auto fields = locate_gnutella_fields(*gnutella_bytes_, users);
  ASSERT_FALSE(fields.stats_peer.empty());
  const auto bytes = rewrite_section(
      *gnutella_bytes_, snap::SectionId::kDomain,
      [&](std::vector<unsigned char>& b, std::size_t) {
        for (std::size_t at : fields.stats_peer) put_u32(b, at, 3'000'000'000u);
      });
  expect_semantic_rejection<gnutella::Simulation>(tiny_gnutella(), bytes,
                                                  "stats-store peer id");
}

TEST_F(CorruptSnapshotTest, OnlinePosMustPointAtTheUser) {
  // Far out of range, and in range but naming another user, which would
  // otherwise resume silently onto a different trajectory.
  const std::size_t users = tiny_gnutella().num_users;
  const auto fields = locate_gnutella_fields(*gnutella_bytes_, users);
  ASSERT_GT(fields.online_pos.size(), 1u);
  for (const std::uint32_t pos :
       {std::uint32_t{3'000'000'000}, static_cast<std::uint32_t>(users - 1),
        std::uint32_t{0}}) {
    SCOPED_TRACE(pos);
    const auto bytes = rewrite_section(
        *gnutella_bytes_, snap::SectionId::kDomain,
        [&](std::vector<unsigned char>& b, std::size_t) {
          for (std::size_t at : fields.online_pos) put_u32(b, at, pos);
        });
    expect_semantic_rejection<gnutella::Simulation>(tiny_gnutella(), bytes,
                                                    "online_pos");
  }
}

TEST_F(CorruptSnapshotTest, DueTimeMustBeFinite) {
  // A NaN or infinite due time matches no record, so the user's sessions
  // or queries would stop without a word.
  const std::size_t users = tiny_gnutella().num_users;
  const auto fields = locate_gnutella_fields(*gnutella_bytes_, users);
  const struct {
    const std::vector<std::size_t>& offsets;
    const char* name;
  } due_fields[] = {{fields.query_due, "query_due_s"},
                    {fields.session_due, "session_due_s"}};
  for (const auto& field : due_fields) {
    for (const double t : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
      SCOPED_TRACE(std::string(field.name) + " = " + std::to_string(t));
      const auto bytes = rewrite_section(
          *gnutella_bytes_, snap::SectionId::kDomain,
          [&](std::vector<unsigned char>& b, std::size_t) {
            put_u64(b, field.offsets.back(), std::bit_cast<std::uint64_t>(t));
          });
      expect_semantic_rejection<gnutella::Simulation>(tiny_gnutella(), bytes,
                                                      field.name);
    }
  }
}

TEST_F(CorruptSnapshotTest, ClockMustBeFinite) {
  // The clock opens the engine-core section.  A NaN clock passes every
  // "not before the clock" record check and would hand the queue NaN
  // times; a negative one is no time a run can be saved at.
  for (const double t : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(), -1.0}) {
    SCOPED_TRACE(t);
    const auto bytes = rewrite_section(
        *good_bytes_, snap::SectionId::kEngineCore,
        [&](std::vector<unsigned char>& b, std::size_t at) {
          put_u64(b, at, std::bit_cast<std::uint64_t>(t));
        });
    expect_semantic_rejection<olap::OlapSim>(tiny_olap(), bytes, "clock");
  }
}

TEST_F(CorruptSnapshotTest, StatsBenefitMustBeFinite) {
  // A NaN or infinite benefit ranks outside every real one, so the
  // resumed updates would keep or drop that neighbor without a word.
  const std::size_t users = tiny_gnutella().num_users;
  const auto fields = locate_gnutella_fields(*gnutella_bytes_, users);
  ASSERT_FALSE(fields.stats_peer.empty());
  for (const double benefit : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(benefit);
    const auto bytes = rewrite_section(
        *gnutella_bytes_, snap::SectionId::kDomain,
        [&](std::vector<unsigned char>& b, std::size_t) {
          // An entry: u32 peer, then the f64 benefit.
          put_u64(b, fields.stats_peer.front() + 4,
                  std::bit_cast<std::uint64_t>(benefit));
        });
    expect_semantic_rejection<gnutella::Simulation>(tiny_gnutella(), bytes,
                                                    "stats-store benefit");
  }
}

TEST_F(CorruptSnapshotTest, WebcacheDynamicMustMatch) {
  // A dynamic run keeps exploration and update records pending that a
  // static run has no use for, and a static run keeps none.
  webcache::WebCacheConfig dynamic = tiny_webcache();
  webcache::WebCacheConfig fixed = tiny_webcache();
  fixed.dynamic = false;
  expect_schedule_value_rejected<webcache::WebCacheSim>(dynamic, fixed, 900.0,
                                                        "dynamic");
  expect_schedule_value_rejected<webcache::WebCacheSim>(fixed, dynamic, 900.0,
                                                        "dynamic");
}

TEST_F(CorruptSnapshotTest, WebcacheNumParentsMustMatch) {
  // Parents keep only the digest rebuild pending; leaves keep all three.
  webcache::WebCacheConfig hierarchy = tiny_webcache();
  hierarchy.num_parents = 4;
  expect_schedule_value_rejected<webcache::WebCacheSim>(
      tiny_webcache(), hierarchy, 900.0, "num_parents");
}

TEST_F(CorruptSnapshotTest, OlapDynamicMustMatch) {
  olap::OlapConfig fixed = tiny_olap();
  fixed.dynamic = false;
  expect_schedule_value_rejected<olap::OlapSim>(tiny_olap(), fixed, 300.0,
                                                "dynamic");
}

TEST_F(CorruptSnapshotTest, OlapUpdatePeriodMustMatch) {
  olap::OlapConfig slower = tiny_olap();
  slower.update_period_s = 2.0 * tiny_olap().update_period_s;
  expect_schedule_value_rejected<olap::OlapSim>(tiny_olap(), slower, 300.0,
                                                "update_period_s");
}

TEST_F(CorruptSnapshotTest, DiglibModeMustMatch) {
  // Only the adaptive federation keeps update records pending.
  diglib::DigLibConfig fixed = simtest::golden_diglib_config();
  fixed.mode = diglib::ListMode::kStatic;
  expect_schedule_value_rejected<diglib::DigLibSim>(
      simtest::golden_diglib_config(), fixed, 900.0, "mode");
}

TEST_F(CorruptSnapshotTest, GnutellaProbePeriodMustMatch) {
  gnutella::Config probed = simtest::golden_gnutella_config();
  probed.num_users = 120;
  probed.sim_hours = 1.0;
  probed.warmup_hours = 0.5;
  probed.probe_period_s = 600.0;
  gnutella::Config faster = probed;
  faster.probe_period_s = 300.0;
  expect_schedule_value_rejected<gnutella::Simulation>(probed, faster, 1800.0,
                                                       "probe_period_s");
}

TEST_F(CorruptSnapshotTest, RecentPosOutsideTheWindow) {
  const std::size_t users = tiny_gnutella().num_users;
  const auto fields = locate_gnutella_fields(*gnutella_bytes_, users);
  const auto bytes = rewrite_section(
      *gnutella_bytes_, snap::SectionId::kDomain,
      [&](std::vector<unsigned char>& b, std::size_t) {
        put_u64(b, fields.recent_pos.front(), 32);  // the window is 32
      });
  expect_semantic_rejection<gnutella::Simulation>(tiny_gnutella(), bytes,
                                                  "recent_pos");
}

TEST_F(CorruptSnapshotTest, EventRecordWithUnknownKind) {
  // 99 is no kind at all; 1 was the engine's periodic tick, which no run
  // schedules any more; 3 is the engine's abuse spray, which a resumed
  // run cannot schedule (the adversary layer and snapshots exclude each
  // other).  A record: f64 time, u32 kind, u64 a, u64 b after the u64
  // count.
  for (const std::uint32_t kind : {99u, 1u, 3u}) {
    SCOPED_TRACE(kind);
    const auto bytes = rewrite_section(
        *good_bytes_, snap::SectionId::kEvents,
        [&](std::vector<unsigned char>& b, std::size_t at) {
          ASSERT_GT(read_u64(b, at), 0u);
          put_u32(b, at + 8 + 8, kind);
        });
    expect_semantic_rejection<olap::OlapSim>(tiny_olap(), bytes,
                                             "unknown event kind");
  }
}

TEST_F(CorruptSnapshotTest, EventRecordNodeIdOutOfRange) {
  const std::uint64_t peers = tiny_olap().num_peers;
  for (const std::size_t field : {std::size_t{12}, std::size_t{20}}) {  // a, b
    for (const std::uint64_t id : {peers, std::uint64_t{1} << 63}) {
      SCOPED_TRACE(std::to_string(field) + ":" + std::to_string(id));
      const auto bytes = rewrite_section(
          *good_bytes_, snap::SectionId::kEvents,
          [&](std::vector<unsigned char>& b, std::size_t at) {
            put_u64(b, at + 8 + field, id);  // the first record
          });
      expect_semantic_rejection<olap::OlapSim>(tiny_olap(), bytes,
                                               "out of range");
    }
  }
}

TEST_F(CorruptSnapshotTest, CacheKeyBeyondTheIdTypeIsRejected) {
  // 2^32 plus a cached chunk would be truncated back to that chunk by the
  // 32-bit chunk id and load as if intact.
  const auto bytes =
      rewrite_first_cache(*good_bytes_, [](std::vector<std::uint64_t>& keys) {
        ASSERT_FALSE(keys.empty());
        keys.front() += std::uint64_t{1} << 32;
      });
  expect_semantic_rejection<olap::OlapSim>(tiny_olap(), bytes, "cache key");
}

TEST_F(CorruptSnapshotTest, CacheKeyOutOfRange) {
  // A chunk or page id at or past the scenario's item count names an item
  // no query can ask for.
  const auto olap_bytes = rewrite_first_cache(
      *good_bytes_, [](std::vector<std::uint64_t>& keys) {
        ASSERT_FALSE(keys.empty());
        keys.front() = tiny_olap().num_chunks + 5;
      });
  expect_semantic_rejection<olap::OlapSim>(tiny_olap(), olap_bytes,
                                           "cache key");

  const std::string path = ::testing::TempDir() + "dsf_cache_key_" +
                           std::to_string(::getpid()) + ".snap";
  {
    webcache::WebCacheSim saver(tiny_webcache());
    saver.request_snapshot_save(path, 900.0);
    saver.run();
  }
  const auto web_bytes =
      rewrite_first_cache(slurp(path), [](std::vector<std::uint64_t>& keys) {
        ASSERT_FALSE(keys.empty());
        keys.front() = tiny_webcache().num_pages;
      });
  std::remove(path.c_str());
  expect_semantic_rejection<webcache::WebCacheSim>(tiny_webcache(), web_bytes,
                                                   "cache key");
}

TEST_F(CorruptSnapshotTest, CacheKeyRepeated) {
  // A repeated key would restore as one entry, so the cache would hold
  // fewer chunks than the saved run's and evict later.
  const auto bytes =
      rewrite_first_cache(*good_bytes_, [](std::vector<std::uint64_t>& keys) {
        ASSERT_GE(keys.size(), 2u);
        keys[1] = keys[0];
      });
  expect_semantic_rejection<olap::OlapSim>(tiny_olap(), bytes, "cache key");
}

TEST_F(CorruptSnapshotTest, CacheSizeAboveCapacity) {
  // capacity + 1 distinct in-range chunks: restoring them would evict one
  // without a word.
  const auto bytes =
      rewrite_first_cache(*good_bytes_, [](std::vector<std::uint64_t>& keys) {
        keys.resize(tiny_olap().cache_capacity + 1);
        for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i;
      });
  expect_semantic_rejection<olap::OlapSim>(tiny_olap(), bytes, "cache size");
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
