#include "core/stats_store.h"

#include <gtest/gtest.h>

namespace dsf::core {
namespace {

TEST(StatsStore, AccumulatesBenefit) {
  StatsStore s;
  s.add(3, 1.5);
  s.add(3, 2.5);
  EXPECT_DOUBLE_EQ(s.benefit_of(3), 4.0);
  EXPECT_TRUE(s.knows(3));
  EXPECT_EQ(s.size(), 1u);
}

TEST(StatsStore, UnknownPeerIsZero) {
  StatsStore s;
  EXPECT_DOUBLE_EQ(s.benefit_of(99), 0.0);
  EXPECT_FALSE(s.knows(99));
}

TEST(StatsStore, ResetForgetsOnePeer) {
  StatsStore s;
  s.add(1, 5.0);
  s.add(2, 3.0);
  s.reset(1);
  EXPECT_FALSE(s.knows(1));
  EXPECT_TRUE(s.knows(2));
}

TEST(StatsStore, ClearForgetsEverything) {
  StatsStore s;
  s.add(1, 1.0);
  s.add(2, 2.0);
  s.clear();
  EXPECT_EQ(s.size(), 0u);
}

TEST(StatsStore, DecayScalesEntries) {
  StatsStore s;
  s.add(1, 10.0);
  s.add(2, 4.0);
  s.decay(0.5);
  EXPECT_DOUBLE_EQ(s.benefit_of(1), 5.0);
  EXPECT_DOUBLE_EQ(s.benefit_of(2), 2.0);
}

}  // namespace
}  // namespace dsf::core
