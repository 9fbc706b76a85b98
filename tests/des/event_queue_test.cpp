#include "des/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace dsf::des {
namespace {

/// An event whose `a` payload tags it, so a test can tell which one popped.
Event tagged(std::uint64_t tag) { return Event{1, tag, 0}; }

/// Pops every remaining event and returns their tags in pop order.
std::vector<std::uint64_t> drain_tags(EventQueue& q) {
  std::vector<std::uint64_t> tags;
  while (!q.empty()) tags.push_back(q.pop().second.a);
  return tags;
}

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.schedule(3.0, tagged(3));
  q.schedule(1.0, tagged(1));
  q.schedule(2.0, tagged(2));
  EXPECT_EQ(drain_tags(q), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireFifo) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 10; ++i) q.schedule(5.0, tagged(i));
  const std::vector<std::uint64_t> fired = drain_tags(q);
  ASSERT_EQ(fired.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueue, PopReturnsTimestamp) {
  EventQueue q;
  q.schedule(4.25, Event{7, 11, 13});
  EXPECT_DOUBLE_EQ(q.next_time(), 4.25);
  const auto [t, ev] = q.pop();
  EXPECT_DOUBLE_EQ(t, 4.25);
  EXPECT_EQ(ev.kind, 7u);
  EXPECT_EQ(ev.a, 11u);
  EXPECT_EQ(ev.b, 13u);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  q.schedule(1.0, tagged(1));
  q.schedule(2.0, tagged(2));
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_EQ(q.size(), 1u);
  q.schedule(0.5, tagged(3));  // reuses the popped record's slot
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(drain_tags(q), (std::vector<std::uint64_t>{3, 2}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, ManyEventsRandomOrder) {
  EventQueue q;
  // xorshift: pseudo-random but deterministic times
  std::vector<double> times;
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 5000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    times.push_back(static_cast<double>(x % 100000) / 100.0);
  }
  for (double t : times) q.schedule(t, tagged(0));
  double prev = -1.0;
  while (!q.empty()) {
    const auto [t, ev] = q.pop();
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(EventQueue, SlotReuseKeepsTotalScheduledMonotone) {
  EventQueue q;
  for (int i = 0; i < 100; ++i) {
    q.schedule(static_cast<double>(i), tagged(0));
    q.pop();
  }
  EXPECT_EQ(q.total_scheduled(), 100u);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace dsf::des
