// The ring is the recorder's only data structure; these tests pin its
// contract: fixed footprint, oldest-first overwrite, chronological
// snapshots, and an overwrite count that owns up to lost history.
#include <gtest/gtest.h>

#include <type_traits>

#include "obs/record.h"
#include "obs/ring_sink.h"
#include "obs/sink.h"

namespace dsf::obs {
namespace {

Record stamped(double t, std::uint32_t from) {
  Record r;
  r.time_s = t;
  r.from = from;
  r.kind = RecordKind::kSend;
  return r;
}

TEST(Record, StaysCompactAndTriviallyCopyable) {
  EXPECT_EQ(sizeof(Record), 40u);
  EXPECT_TRUE(std::is_trivially_copyable_v<Record>);
}

TEST(Record, DelayRoundTripsThroughBits) {
  Record r;
  r.b = Record::pack_delay(0.602481);
  EXPECT_DOUBLE_EQ(r.unpack_delay(), 0.602481);
  r.b = Record::pack_delay(-1.0);
  EXPECT_DOUBLE_EQ(r.unpack_delay(), -1.0);
}

TEST(RingSink, EmptyByDefault) {
  RingSink ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_EQ(ring.overwritten(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
  EXPECT_TRUE(ring.enabled());
}

TEST(RingSink, HoldsRecordsInOrderBeforeWrap) {
  RingSink ring(8);
  for (int i = 0; i < 5; ++i) ring.record(stamped(i, 100 + i));
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.total(), 5u);
  EXPECT_EQ(ring.overwritten(), 0u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(snap[i].time_s, i);
    EXPECT_EQ(snap[i].from, 100u + i);
  }
}

TEST(RingSink, WrapKeepsNewestAndCountsOverwrites) {
  RingSink ring(4);
  for (int i = 0; i < 11; ++i) ring.record(stamped(i, i));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total(), 11u);
  EXPECT_EQ(ring.overwritten(), 7u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Oldest-first: records 7, 8, 9, 10 survive.
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(snap[i].time_s, 7 + i);
}

TEST(RingSink, SnapshotIsChronologicalAtExactWrapBoundary) {
  RingSink ring(4);
  for (int i = 0; i < 8; ++i) ring.record(stamped(i, i));
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(snap[i].time_s, 4 + i);
}

TEST(RingSink, ClearForgetsRecordsButKeepsCapacity) {
  RingSink ring(4);
  for (int i = 0; i < 6; ++i) ring.record(stamped(i, i));
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_EQ(ring.capacity(), 4u);
  ring.record(stamped(42.0, 1));
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_DOUBLE_EQ(snap[0].time_s, 42.0);
}

TEST(NullSink, IsDisabledSingleton) {
  EXPECT_FALSE(NullSink::instance().enabled());
  // record() must be callable and a no-op.
  NullSink::instance().record(stamped(0.0, 0));
}

}  // namespace
}  // namespace dsf::obs
