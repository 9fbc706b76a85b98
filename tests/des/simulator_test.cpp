#include "des/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace dsf::des {
namespace {

/// An event whose `a` payload tags it.
Event tagged(std::uint64_t tag) { return Event{1, tag, 0}; }

/// Ignores every event.
void ignore(const Event&) {}

TEST(Simulator, ClockStartsAtZero) {
  Simulator sim(ignore);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Simulator, NowIsExactInsideCallback) {
  double seen = -1.0;
  Simulator sim([&](const Event&) { seen = sim.now(); });
  sim.schedule_in(2.5, tagged(0));
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
}

TEST(Simulator, HandlerReceivesTheScheduledRecord) {
  std::vector<std::uint64_t> seen;
  Simulator sim([&](const Event& e) {
    EXPECT_EQ(e.kind, 9u);
    EXPECT_EQ(e.b, e.a + 1);
    seen.push_back(e.a);
  });
  sim.schedule_at(2.0, Event{9, 20, 21});
  sim.schedule_at(1.0, Event{9, 10, 11});
  sim.run();
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{10, 20}));
}

TEST(Simulator, ChainedEventsAccumulateTime) {
  std::vector<double> times;
  Simulator sim([&](const Event&) {
    times.push_back(sim.now());
    if (times.size() < 4) sim.schedule_in(1.0, tagged(0));
  });
  sim.schedule_in(1.0, tagged(0));
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  int fired = 0;
  Simulator sim([&](const Event&) { ++fired; });
  for (int i = 1; i <= 10; ++i)
    sim.schedule_at(static_cast<double>(i), tagged(0));
  sim.run_until(5.0);
  EXPECT_EQ(fired, 5);  // events at 1..5 inclusive
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, RunUntilAdvancesClockWhenQueueDrains) {
  Simulator sim(ignore);
  sim.schedule_at(1.0, tagged(0));
  sim.run_until(100.0);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulator, StopRequestHaltsExecution) {
  int fired = 0;
  Simulator sim([&](const Event& e) {
    ++fired;
    if (e.a == 1) sim.stop();
  });
  sim.schedule_at(1.0, tagged(1));
  sim.schedule_at(2.0, tagged(2));
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();  // resumable after stop
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StepExecutesExactlyOne) {
  int fired = 0;
  Simulator sim([&](const Event&) { ++fired; });
  sim.schedule_at(1.0, tagged(0));
  sim.schedule_at(2.0, tagged(0));
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ExecutedCountsLifetime) {
  Simulator sim(ignore);
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, tagged(0));
  sim.run();
  EXPECT_EQ(sim.executed(), 7u);
}

TEST(Simulator, EventsScheduledFromCallbacksAtSameTimeRun) {
  int fired = 0;
  Simulator sim([&](const Event& e) {
    if (e.a == 0)
      sim.schedule_at(1.0, tagged(1));  // same timestamp
    else
      ++fired;
  });
  sim.schedule_at(1.0, tagged(0));
  sim.run_until(1.0);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, ScheduleReturnsTheTimeNowReadsWhenTheEventRuns) {
  std::vector<double> due;
  std::vector<double> ran;
  Simulator sim([&](const Event& e) {
    ran.push_back(sim.now());
    if (e.a == 0) {
      due.push_back(sim.schedule_in(0.1, tagged(1)));
      due.push_back(sim.schedule_in(-1.0, tagged(1)));  // clamped to now
      due.push_back(sim.schedule_at(2.0, tagged(1)));   // in the past
    }
  });
  due.push_back(sim.schedule_at(2.7, tagged(0)));
  sim.run();
  EXPECT_EQ(due, (std::vector<double>{2.7, 2.7 + 0.1, 2.7, 2.7}));
  // Popped in (time, seq) order: the three scheduled at 2.7, then 2.8.
  EXPECT_EQ(ran, (std::vector<double>{due[0], due[2], due[3], due[1]}));
}

TEST(Simulator, PastSchedulingClampsToNow) {
  std::vector<double> times;
  Simulator sim([&](const Event& e) {
    if (e.a == 0) {
      // Both of these target the past; they must fire "now", not rewind.
      sim.schedule_at(3.0, tagged(1));
      sim.schedule_in(-5.0, tagged(1));
    } else {
      times.push_back(sim.now());
    }
  });
  sim.schedule_at(10.0, tagged(0));
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 10.0);
  EXPECT_DOUBLE_EQ(times[1], 10.0);
}

TEST(Simulator, ClockIsMonotoneThroughCallbacks) {
  double last = -1.0;
  Simulator sim([&](const Event&) {
    EXPECT_GE(sim.now(), last);
    last = sim.now();
  });
  for (int i = 0; i < 50; ++i)
    sim.schedule_at(static_cast<double>(i % 7), tagged(0));
  sim.run();
}

TEST(Simulator, ReturnsEventCountPerRun) {
  Simulator sim(ignore);
  for (int i = 1; i <= 4; ++i) sim.schedule_at(i, tagged(0));
  EXPECT_EQ(sim.run_until(2.0), 2u);
  EXPECT_EQ(sim.run_until(10.0), 2u);
}

}  // namespace
}  // namespace dsf::des
