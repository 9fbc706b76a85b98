#include "core/search_strategies.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace dsf::core {
namespace {

class StrategyFixture {
 public:
  explicit StrategyFixture(std::size_t n)
      : adj_(n), stamps_(n), hit_stamps_(n) {}

  void edge(net::NodeId a, net::NodeId b) {
    adj_[a].push_back(b);
    adj_[b].push_back(a);
  }
  void content(net::NodeId n) { holders_.insert(n); }

  auto neighbors() {
    return [this](net::NodeId n) -> const std::vector<net::NodeId>& {
      return adj_[n];
    };
  }
  auto has_content() {
    return [this](net::NodeId n) { return holders_.count(n) != 0; };
  }
  static double unit_delay(net::NodeId, net::NodeId) { return 1.0; }

  std::vector<std::vector<net::NodeId>> adj_;
  std::set<net::NodeId> holders_;
  VisitStamp stamps_;
  VisitStamp hit_stamps_;
  SearchScratch scratch_;
};

TEST(DepthLadder, SingleCycleForShallowBudgets) {
  EXPECT_EQ(default_depth_ladder(1), (std::vector<int>{1}));
  EXPECT_EQ(default_depth_ladder(0), (std::vector<int>{0}));
}

TEST(DepthLadder, ProbeThenFullDepth) {
  EXPECT_EQ(default_depth_ladder(4), (std::vector<int>{2, 4}));
  EXPECT_EQ(default_depth_ladder(5), (std::vector<int>{3, 5}));
  EXPECT_EQ(default_depth_ladder(2), (std::vector<int>{1, 2}));
}

TEST(IterativeDeepening, StopsAtFirstSatisfiedCycle) {
  // Line 0-1-2-3, content at 1: the depth-2 probe already finds it.
  StrategyFixture f(4);
  f.edge(0, 1);
  f.edge(1, 2);
  f.edge(2, 3);
  f.content(1);
  SearchParams p;
  const auto out = iterative_deepening_search(
      0, p, {2, 4}, f.neighbors(), f.has_content(),
      StrategyFixture::unit_delay, ReliableTransmit{}, f.stamps_, f.scratch_);
  EXPECT_TRUE(out.satisfied());
  EXPECT_EQ(out.cycles, 1);
  EXPECT_EQ(out.final_depth, 2);
}

TEST(IterativeDeepening, EscalatesWhenNearbyMisses) {
  // Content only at 3: the depth-2 probe fails, depth-4 succeeds.
  StrategyFixture f(5);
  f.edge(0, 1);
  f.edge(1, 2);
  f.edge(2, 3);
  f.content(3);
  SearchParams p;
  const auto out = iterative_deepening_search(
      0, p, {2, 4}, f.neighbors(), f.has_content(),
      StrategyFixture::unit_delay, ReliableTransmit{}, f.stamps_, f.scratch_);
  EXPECT_TRUE(out.satisfied());
  EXPECT_EQ(out.cycles, 2);
  EXPECT_EQ(out.final_depth, 4);
}

TEST(IterativeDeepening, AccumulatesMessagesAcrossCycles) {
  StrategyFixture f(4);
  f.edge(0, 1);
  f.edge(1, 2);
  f.edge(2, 3);  // no content anywhere
  SearchParams p;
  const auto out = iterative_deepening_search(
      0, p, {1, 3}, f.neighbors(), f.has_content(),
      StrategyFixture::unit_delay, ReliableTransmit{}, f.stamps_, f.scratch_);
  EXPECT_FALSE(out.satisfied());
  // Cycle 1 (depth 1): 0→1 = 1 message.  Cycle 2 (depth 3): 0→1, 1→2,
  // 2→3 = 3 messages.  Total 4.
  EXPECT_EQ(out.total_messages, 4u);
  EXPECT_EQ(out.cycles, 2);
}

TEST(IterativeDeepening, CheaperThanFullFloodWhenResultsNearby) {
  // Star with content at a first-hop neighbor: probe depth 1 suffices.
  StrategyFixture f(8);
  for (net::NodeId i = 1; i < 8; ++i) f.edge(0, i);
  f.content(1);
  SearchParams p;
  const auto iterative = iterative_deepening_search(
      0, p, {1, 4}, f.neighbors(), f.has_content(),
      StrategyFixture::unit_delay, ReliableTransmit{}, f.stamps_, f.scratch_);
  p.max_hops = 4;
  const auto flood =
      flood_search(0, p, f.neighbors(), f.has_content(),
                   StrategyFixture::unit_delay, f.stamps_, f.scratch_);
  EXPECT_TRUE(iterative.satisfied());
  EXPECT_LE(iterative.total_messages, flood.query_messages);
}

TEST(DirectedSubset, PicksTopBeneficialNeighbors) {
  StatsStore stats;
  stats.add(1, 1.0);
  stats.add(2, 9.0);
  stats.add(3, 5.0);
  const auto subset = select_directed_subset(stats, std::vector<net::NodeId>{1, 2, 3, 4}, 2);
  EXPECT_EQ(subset, (std::vector<net::NodeId>{2, 3}));
}

TEST(DirectedSubset, UnknownNeighborsRankLast) {
  StatsStore stats;
  stats.add(4, 0.5);
  const auto subset = select_directed_subset(stats, std::vector<net::NodeId>{1, 2, 4}, 2);
  EXPECT_EQ(subset, (std::vector<net::NodeId>{4, 1}));
}

TEST(DirectedSubset, FanoutLargerThanDegreeKeepsAll) {
  StatsStore stats;
  const auto subset = select_directed_subset(stats, std::vector<net::NodeId>{3, 1}, 10);
  EXPECT_EQ(subset.size(), 2u);
}

TEST(DirectedBft, OnlySubsetReceivesFromInitiator) {
  // Star: initiator 0 with neighbors 1..4; content at 4, which is NOT in
  // the directed subset — the query must miss.
  StrategyFixture f(5);
  for (net::NodeId i = 1; i < 5; ++i) f.edge(0, i);
  f.content(4);
  StatsStore stats;
  stats.add(1, 3.0);
  stats.add(2, 2.0);
  SearchParams p;
  p.max_hops = 1;
  const auto subset = select_directed_subset(stats, f.adj_[0], 2);
  const auto out = directed_flood_search(
      0, p, subset, f.neighbors(), f.has_content(),
      StrategyFixture::unit_delay, ReliableTransmit{}, f.stamps_, f.scratch_);
  EXPECT_FALSE(out.satisfied());
  EXPECT_EQ(out.query_messages, 2u);
}

TEST(DirectedBft, IntermediateNodesFloodNormally) {
  // 0 -(subset)-> 1 -> {2, 3}; content at 3 is reachable because node 1
  // forwards to its whole list.
  StrategyFixture f(4);
  f.edge(0, 1);
  f.edge(1, 2);
  f.edge(1, 3);
  f.content(3);
  StatsStore stats;
  SearchParams p;
  p.max_hops = 2;
  const auto out = directed_flood_search(
      0, p, {1}, f.neighbors(), f.has_content(),
      StrategyFixture::unit_delay, ReliableTransmit{}, f.stamps_, f.scratch_);
  EXPECT_TRUE(out.satisfied());
  EXPECT_EQ(out.hits[0].node, 3u);
}

TEST(LocalIndices, InitiatorIndexAnswersAtHopZero) {
  StrategyFixture f(3);
  f.edge(0, 1);
  f.edge(1, 2);
  f.content(1);
  SearchParams p;
  p.max_hops = 2;
  const auto out = indexed_flood_search(
      0, p, f.neighbors(), f.has_content(), StrategyFixture::unit_delay,
      ReliableTransmit{}, f.stamps_, f.hit_stamps_, f.scratch_);
  ASSERT_TRUE(out.satisfied());
  EXPECT_EQ(out.hits[0].node, 1u);
  EXPECT_EQ(out.hits[0].hop, 0);                 // answered from the index
  EXPECT_DOUBLE_EQ(out.hits[0].reply_at_s, 0.0);  // no network round trip
  EXPECT_EQ(out.query_messages, 0u);              // stop-at-hit: no flood
  EXPECT_EQ(out.reply_messages, 0u);  // answered locally: nothing was sent
}

TEST(LocalIndices, RadiusExtendsEffectiveDepth) {
  // Line 0-1-2-3 with content only at 3.  A plain flood needs 3 hops; the
  // indexed search needs only 2 (node 2's index covers node 3).
  StrategyFixture f(4);
  f.edge(0, 1);
  f.edge(1, 2);
  f.edge(2, 3);
  f.content(3);
  SearchParams p;
  p.max_hops = 2;
  const auto plain =
      flood_search(0, p, f.neighbors(), f.has_content(),
                   StrategyFixture::unit_delay, f.stamps_, f.scratch_);
  EXPECT_FALSE(plain.satisfied());
  const auto indexed = indexed_flood_search(
      0, p, f.neighbors(), f.has_content(), StrategyFixture::unit_delay,
      ReliableTransmit{}, f.stamps_, f.hit_stamps_, f.scratch_);
  EXPECT_TRUE(indexed.satisfied());
  EXPECT_EQ(indexed.hits[0].node, 3u);
}

TEST(LocalIndices, HolderReportedOnceDespiteMultipleIndexers) {
  // Triangle 0-1-2 plus holder 3 linked to both 1 and 2: nodes 1 and 2
  // both index 3, but it must appear in the results once.
  StrategyFixture f(4);
  f.edge(0, 1);
  f.edge(0, 2);
  f.edge(1, 2);
  f.edge(1, 3);
  f.edge(2, 3);
  f.content(3);
  SearchParams p;
  p.max_hops = 2;
  p.forward_when_hit = true;  // let both branches run
  const auto out = indexed_flood_search(
      0, p, f.neighbors(), f.has_content(), StrategyFixture::unit_delay,
      ReliableTransmit{}, f.stamps_, f.hit_stamps_, f.scratch_);
  std::size_t count = 0;
  for (const auto& h : out.hits)
    if (h.node == 3) ++count;
  EXPECT_EQ(count, 1u);
}

TEST(LocalIndices, FewerMessagesThanPlainFloodSameCoverage) {
  // Random-ish overlay: indexed search at depth d-1 vs plain at depth d.
  StrategyFixture f(30);
  for (net::NodeId i = 1; i < 30; ++i)
    f.edge(i, (i * 7 + 3) % i);  // pseudo-random parent: tree-ish overlay
  f.content(29);
  SearchParams deep;
  deep.max_hops = 4;
  const auto plain =
      flood_search(0, deep, f.neighbors(), f.has_content(),
                   StrategyFixture::unit_delay, f.stamps_, f.scratch_);
  SearchParams shallow;
  shallow.max_hops = 3;
  const auto indexed = indexed_flood_search(
      0, shallow, f.neighbors(), f.has_content(), StrategyFixture::unit_delay,
      ReliableTransmit{}, f.stamps_, f.hit_stamps_, f.scratch_);
  EXPECT_LE(indexed.query_messages, plain.query_messages);
}

}  // namespace
}  // namespace dsf::core
