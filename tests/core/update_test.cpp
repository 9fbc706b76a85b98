#include "core/update.h"

#include <gtest/gtest.h>

namespace dsf::core {
namespace {

const auto kAll = [](net::NodeId) { return true; };

/// The planner APIs take spans now; a braced list needs backing storage.
using Ids = std::vector<net::NodeId>;

TEST(PlanUpdate, PicksTopBeneficialNodes) {
  StatsStore s;
  s.add(1, 1.0);
  s.add(2, 9.0);
  s.add(3, 5.0);
  s.add(4, 7.0);
  const auto plan = plan_update(s, Ids{1, 3}, 2, kAll);
  EXPECT_EQ(plan.new_out, (std::vector<net::NodeId>{2, 4}));
  EXPECT_EQ(plan.additions, (std::vector<net::NodeId>{2, 4}));
  EXPECT_EQ(plan.evictions, (std::vector<net::NodeId>{1, 3}));
}

TEST(PlanUpdate, KeepsBeneficialCurrentNeighbors) {
  StatsStore s;
  s.add(1, 10.0);  // current, great
  s.add(2, 1.0);   // current, weak
  s.add(3, 5.0);   // candidate, better than 2
  const auto plan = plan_update(s, Ids{1, 2}, 2, kAll);
  EXPECT_EQ(plan.new_out, (std::vector<net::NodeId>{1, 3}));
  EXPECT_EQ(plan.additions, (std::vector<net::NodeId>{3}));
  EXPECT_EQ(plan.evictions, (std::vector<net::NodeId>{2}));
}

TEST(PlanUpdate, SparseStatsKeepCurrentNeighborhood) {
  // Current neighbors without statistics must not be evicted in favour of
  // nothing: the plan retains them (ties prefer current).
  StatsStore s;
  const auto plan = plan_update(s, Ids{5, 6, 7}, 4, kAll);
  EXPECT_TRUE(plan.additions.empty());
  EXPECT_TRUE(plan.evictions.empty());
  EXPECT_EQ(plan.new_out.size(), 3u);
}

TEST(PlanUpdate, TiePrefersCurrentNeighbor) {
  StatsStore s;
  s.add(1, 2.0);  // current
  s.add(9, 2.0);  // equal-benefit outsider
  const auto plan = plan_update(s, Ids{1}, 1, kAll);
  EXPECT_EQ(plan.new_out, (std::vector<net::NodeId>{1}));
  EXPECT_TRUE(plan.evictions.empty());
}

TEST(PlanUpdate, IneligibleNodesExcluded) {
  StatsStore s;
  s.add(1, 10.0);
  s.add(2, 5.0);
  const auto offline1 = [](net::NodeId n) { return n != 1; };
  const auto plan = plan_update(s, Ids{}, 2, offline1);
  EXPECT_EQ(plan.new_out, (std::vector<net::NodeId>{2}));
}

TEST(PlanUpdate, OfflineCurrentNeighborDropped) {
  StatsStore s;
  s.add(1, 10.0);
  const auto offline1 = [](net::NodeId n) { return n != 1; };
  const auto plan = plan_update(s, Ids{1}, 2, offline1);
  EXPECT_TRUE(plan.new_out.empty());
  EXPECT_EQ(plan.evictions, (std::vector<net::NodeId>{1}));
}

TEST(PlanUpdate, CapacityBoundsResult) {
  StatsStore s;
  for (net::NodeId n = 0; n < 10; ++n) s.add(n, static_cast<double>(n));
  const auto plan = plan_update(s, Ids{}, 4, kAll);
  EXPECT_EQ(plan.new_out, (std::vector<net::NodeId>{9, 8, 7, 6}));
}

TEST(LeastBeneficial, FindsWorst) {
  StatsStore s;
  s.add(1, 3.0);
  s.add(2, 1.0);
  s.add(3, 2.0);
  EXPECT_EQ(least_beneficial(s, Ids{1, 2, 3}), 2u);
}

TEST(LeastBeneficial, UnknownNodesAreWorst) {
  StatsStore s;
  s.add(1, 3.0);
  EXPECT_EQ(least_beneficial(s, Ids{1, 9}), 9u);
}

TEST(LeastBeneficial, EmptyListInvalid) {
  StatsStore s;
  EXPECT_EQ(least_beneficial(s, Ids{}), net::kInvalidNode);
}

TEST(DecideInvitation, FreeSlotAlwaysAccepts) {
  StatsStore s;
  const auto d = decide_invitation(s, 7, Ids{1, 2}, 4,
                                   InvitationPolicy::kBenefitGated);
  EXPECT_TRUE(d.accept);
  EXPECT_EQ(d.evict, net::kInvalidNode);
}

TEST(DecideInvitation, AlwaysAcceptEvictsWorstWhenFull) {
  StatsStore s;
  s.add(1, 5.0);
  s.add(2, 1.0);
  const auto d =
      decide_invitation(s, 7, Ids{1, 2}, 2, InvitationPolicy::kAlwaysAccept);
  EXPECT_TRUE(d.accept);
  EXPECT_EQ(d.evict, 2u);
}

TEST(DecideInvitation, BenefitGatedRejectsWeakInviter) {
  StatsStore s;
  s.add(1, 5.0);
  s.add(2, 3.0);
  s.add(7, 1.0);  // inviter weaker than both neighbors
  const auto d =
      decide_invitation(s, 7, Ids{1, 2}, 2, InvitationPolicy::kBenefitGated);
  EXPECT_FALSE(d.accept);
}

TEST(DecideInvitation, BenefitGatedAcceptsStrongInviter) {
  StatsStore s;
  s.add(1, 5.0);
  s.add(2, 3.0);
  s.add(7, 4.0);  // beats neighbor 2
  const auto d =
      decide_invitation(s, 7, Ids{1, 2}, 2, InvitationPolicy::kBenefitGated);
  EXPECT_TRUE(d.accept);
  EXPECT_EQ(d.evict, 2u);
}

TEST(DecideInvitation, ExistingNeighborRejected) {
  StatsStore s;
  const auto d =
      decide_invitation(s, 1, Ids{1, 2}, 4, InvitationPolicy::kAlwaysAccept);
  EXPECT_FALSE(d.accept);
}

}  // namespace
}  // namespace dsf::core
