// Randomized differential test of EventQueue against an ordered-set
// oracle.  The queue is a 4-ary heap whose pop order must be exactly the
// strict total order (time, seq) — the oracle is a std::set keyed the
// same way, and every interleaving of schedule / fan-out / pop must agree
// with it event-for-event: same timestamp bits, same event record, same
// size.  Populations run from a few events (partial child rows) to
// thousands (full-arity tournaments, deep sift-downs), with inserts below
// the current minimum, exact ties, far-future clusters, recycled slots
// and re-armed timers whose superseded records stay queued until they
// pop.

#include "des/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

namespace dsf::des {
namespace {

class DifferentialHarness {
 public:
  explicit DifferentialHarness(std::uint64_t seed) : rng_(seed) {}

  void schedule_one(double t) {
    const std::uint64_t tag = next_tag_++;
    q_.schedule(t, record(tag));
    ref_.emplace(t, tag);
  }

  /// A neighbor fan-out, as core::event_flood schedules one: `n`
  /// deliveries on a coarse grid after `base_t`, back to back.
  void schedule_fanout(std::size_t n, double base_t) {
    for (std::size_t i = 0; i < n; ++i)
      schedule_one(base_t + 0.25 * static_cast<double>(rng_() % 64));
  }

  void pop_one() {
    ASSERT_FALSE(ref_.empty());
    const auto expect = *ref_.begin();
    ASSERT_FALSE(q_.empty());
    EXPECT_EQ(q_.next_time(), expect.first);
    const auto [t, ev] = q_.pop();
    EXPECT_EQ(t, expect.first);  // exact, not approximate
    EXPECT_EQ(ev.a, expect.second);
    EXPECT_EQ(ev.kind, record(expect.second).kind);
    EXPECT_EQ(ev.b, record(expect.second).b);
    ref_.erase(ref_.begin());
    now_ = t;
  }

  void drain_all() {
    while (!ref_.empty()) {
      pop_one();
      // A failed ASSERT inside pop_one only returns from that helper;
      // without this check a mismatch would loop here forever.
      if (::testing::Test::HasFatalFailure() ||
          ::testing::Test::HasNonfatalFailure())
        return;
    }
    EXPECT_TRUE(q_.empty());
    EXPECT_EQ(q_.size(), 0u);
  }

  void check_size() { EXPECT_EQ(q_.size(), ref_.size()); }

  // One mixed phase: random ops biased toward `target` standing events.
  void run_phase(int ops, std::size_t target) {
    for (int op = 0; op < ops; ++op) {
      const std::uint64_t r = rng_() % 100;
      const bool grow = ref_.size() < target;
      if (ref_.empty() || (grow && r < 55)) {
        schedule_one(draw_time());
      } else if (r < 5) {
        schedule_fanout(2 + rng_() % 15, now_ + 1.0);
      } else if (r < 60) {
        pop_one();
      } else {
        schedule_one(draw_time());
      }
      if (::testing::Test::HasFatalFailure() ||
          ::testing::Test::HasNonfatalFailure())
        return;
      if ((op & 1023) == 0) check_size();
    }
  }

  // The simulators' mix of time scales in one queue: a standing set of
  // minute- to hour-scale timers (sessions, query timers) under dense
  // second-scale message traffic.  A quarter of the ops re-arm a timer,
  // as a log-off supersedes a user's pending query timer and the next
  // log-in arms a fresh one: the superseded record is not removed, it
  // stays deep in the heap until its time surfaces and it pops.
  void run_timer_phase(int ops, std::size_t timers) {
    for (std::size_t i = 0; i < timers; ++i) schedule_one(draw_timer());
    const std::size_t target = timers + 64;
    for (int op = 0; op < ops; ++op) {
      const std::uint64_t r = rng_() % 100;
      if (r < 25) {
        schedule_one(draw_timer());
      } else if (r < 30) {
        schedule_fanout(2 + rng_() % 15, now_ + 0.05);
      } else if (r < 70 && ref_.size() < target) {
        schedule_one(now_ + static_cast<double>(rng_() % 2000) * 1e-3);
      } else if (!ref_.empty()) {
        pop_one();
      }
      if (::testing::Test::HasFatalFailure() ||
          ::testing::Test::HasNonfatalFailure())
        return;
      if ((op & 1023) == 0) check_size();
    }
  }

 private:
  /// The record scheduled under `tag`: every field derives from it, so a
  /// popped event that mixes two slots' fields cannot pass.
  static Event record(std::uint64_t tag) {
    return Event{static_cast<std::uint32_t>(tag % 7) + 1, tag, ~tag};
  }

  double draw_time() {
    const std::uint64_t r = rng_() % 100;
    if (r < 70) {
      // Coarse grid around now: plenty of exact ties to exercise FIFO.
      return now_ + 0.25 * static_cast<double>(rng_() % 256);
    }
    if (r < 85) {
      // Continuous near future.
      return now_ + static_cast<double>(rng_() % 100000) * 1e-3;
    }
    if (r < 95) {
      // Far future: stays deep in the heap across many pops.
      return now_ + 1000.0 + static_cast<double>(rng_() % 1000);
    }
    // In the past, possibly negative: sifts all the way to the root.
    return now_ - static_cast<double>(rng_() % 50);
  }

  double draw_timer() {
    return now_ + 60.0 * static_cast<double>(1 + rng_() % 240) +
           static_cast<double>(rng_() % 1000) * 1e-3;
  }

  std::mt19937_64 rng_;
  EventQueue q_;
  std::set<std::pair<double, std::uint64_t>> ref_;
  std::uint64_t next_tag_ = 0;
  double now_ = 0.0;
};

TEST(EventQueueDifferential, HeapOnlySmallPopulation) {
  // A few dozen events: a shallow heap whose last row is mostly partial,
  // so sift-downs take the short-row path of min_child.
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    DifferentialHarness h(seed);
    h.run_phase(20000, 64);
    h.drain_all();
  }
}

TEST(EventQueueDifferential, LargePopulation) {
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    DifferentialHarness h(seed);
    h.run_phase(15000, 3000);  // deep heap: full-arity tournaments
    h.run_phase(15000, 400);   // shrink back down
    h.drain_all();
  }
}

TEST(EventQueueDifferential, HourTimersUnderSecondScaleTraffic) {
  for (std::uint64_t seed : {51u, 52u}) {
    DifferentialHarness h(seed);
    h.run_timer_phase(30000, 3000);
    h.drain_all();
  }
}

TEST(EventQueueDifferential, GrowDrainCycles) {
  // Repeated collapse to empty and regrowth: every slot is recycled, and
  // the heap restarts from one node.
  DifferentialHarness h(31);
  for (int cycle = 0; cycle < 6; ++cycle) {
    h.run_phase(4000, 1500);
    h.drain_all();
  }
}

TEST(EventQueueDifferential, ClusteredTimeJumps) {
  // Clusters separated by huge gaps: each far-future batch sits under a
  // busy near-future population and surfaces only once the cluster
  // before it has drained.
  DifferentialHarness h(41);
  for (int cluster = 0; cluster < 5; ++cluster) {
    h.run_phase(3000, 800);
    h.schedule_fanout(64, 1.0e6 * static_cast<double>(cluster + 1));
    h.drain_all();
  }
}

TEST(EventQueueDifferential, SnapshotRoundTripPreservesPopOrder) {
  // Mirrors how the checkpoint layer serializes the event section: pending
  // event records are enumerated through for_each_pending (unspecified
  // order, popped slots skipped), sorted by (time, seq) and re-scheduled
  // into a fresh queue with new ascending seqs.  Because the sort key IS the pop
  // order, FIFO ties survive the re-numbering: the restored queue must
  // drain in exactly the oracle's order, bit-exact timestamps included.
  std::mt19937_64 rng(77);
  for (int round = 0; round < 4; ++round) {
    EventQueue q;
    std::set<std::pair<double, std::uint64_t>> oracle;  // (time, tag)
    std::uint64_t next_tag = 0;
    double now = 0.0;

    const auto draw = [&]() -> double {
      const std::uint64_t r = rng() % 100;
      if (r < 60) return now + 0.25 * static_cast<double>(rng() % 256);
      if (r < 90) return now + static_cast<double>(rng() % 100000) * 1e-3;
      return now + 2000.0 + static_cast<double>(rng() % 1000);  // far future
    };

    for (int op = 0; op < 6000; ++op) {
      const std::uint64_t r = rng() % 100;
      if (oracle.size() < 2500 || r < 55) {
        const double t = draw();
        const std::uint64_t tag = next_tag++;
        q.schedule(t, Event{1, tag, 0});
        oracle.emplace(t, tag);
      } else {
        // Popped records must be invisible to for_each_pending, also once
        // their slots are recycled.
        const auto [t, ev] = q.pop();
        EXPECT_EQ(t, oracle.begin()->first);
        EXPECT_EQ(ev.a, oracle.begin()->second);
        oracle.erase(oracle.begin());
        now = t;
      }
    }
    ASSERT_FALSE(oracle.empty());

    // --- Save: enumerate the records, sort by (time, seq).
    struct Rec {
      double t;
      std::uint64_t seq;
      Event ev;
    };
    std::vector<Rec> recs;
    q.for_each_pending([&](double t, std::uint64_t seq, const Event& ev) {
      ASSERT_EQ(oracle.count({t, ev.a}), 1u)
          << "popped event leaked into the walk";
      recs.push_back({t, seq, ev});
    });
    ASSERT_EQ(recs.size(), oracle.size());
    std::sort(recs.begin(), recs.end(), [](const Rec& a, const Rec& b) {
      return std::tie(a.t, a.seq) < std::tie(b.t, b.seq);
    });

    // --- Restore: replay into a fresh queue in sorted order.
    EventQueue fresh;
    for (const Rec& r : recs) fresh.schedule(r.t, r.ev);

    // --- Drain: the restored queue agrees with the oracle event-for-event.
    for (const auto& [t, tag] : oracle) {
      ASSERT_FALSE(fresh.empty());
      const auto [pt, ev] = fresh.pop();
      EXPECT_EQ(pt, t);
      EXPECT_EQ(ev.a, tag);
      if (::testing::Test::HasNonfatalFailure()) return;
    }
    EXPECT_TRUE(fresh.empty());
  }
}

TEST(EventQueueDifferential, EqualTimestampFifoInLargeHeap) {
  // A thousand events at one instant, scheduled into a heap that already
  // holds 400 others, must fire in exact insertion order: among ties the
  // sequence number alone decides.
  EventQueue q;
  std::vector<std::uint64_t> fired;
  for (int i = 0; i < 400; ++i) q.schedule(0.5 * i, Event{1, 0, 0});
  for (std::uint64_t i = 0; i < 1000; ++i) q.schedule(1.0, Event{2, i, 0});
  while (!q.empty()) {
    const auto [t, ev] = q.pop();
    if (ev.kind == 2) fired.push_back(ev.a);
    if (t > 1.0) break;
  }
  for (std::size_t i = 0; i < fired.size(); ++i) EXPECT_EQ(fired[i], i);
  EXPECT_EQ(fired.size(), 1000u);
}

}  // namespace
}  // namespace dsf::des
