#include "core/event_flood.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/flood_search.h"
#include "des/rng.h"

namespace dsf::core {
namespace {

/// Equivalence harness between the eager flood (what the experiment
/// benches run) and the message-level event-driven reference.
class EventFloodEquivalence : public ::testing::Test {
 protected:
  void build_random(std::size_t n, int degree, double holder_density,
                    std::uint64_t seed) {
    des::Rng rng(seed);
    adj_.assign(n, {});
    for (net::NodeId u = 0; u < n; ++u) {
      int attempts = 40;
      while (adj_[u].size() < static_cast<std::size_t>(degree) &&
             attempts-- > 0) {
        const auto v = static_cast<net::NodeId>(rng.uniform_int(n));
        if (v == u) continue;
        if (std::find(adj_[u].begin(), adj_[u].end(), v) != adj_[u].end())
          continue;
        adj_[u].push_back(v);
        adj_[v].push_back(u);
      }
    }
    holder_.assign(n, false);
    for (std::size_t i = 0; i < n; ++i)
      holder_[i] = rng.bernoulli(holder_density);
  }

  void build_tree(std::size_t n) {
    adj_.assign(n, {});
    for (net::NodeId i = 1; i < n; ++i) {
      const net::NodeId parent = (i - 1) / 3;  // ternary tree
      adj_[i].push_back(parent);
      adj_[parent].push_back(i);
    }
    holder_.assign(n, false);
    for (std::size_t i = 0; i < n; i += 5) holder_[i] = true;
    holder_[0] = false;  // initiator
  }

  template <typename DelayFn>
  void expect_equivalent(net::NodeId from, const SearchParams& params,
                         DelayFn&& delay, bool compare_times) {
    VisitStamp stamps_a(adj_.size());
    SearchScratch scratch;
    const auto neighbors = [this](net::NodeId x) -> const std::vector<net::NodeId>& {
      return adj_[x];
    };
    const auto has = [this](net::NodeId x) {
      return static_cast<bool>(holder_[x]);
    };
    const auto eager =
        flood_search(from, params, neighbors, has, delay, stamps_a, scratch);

    VisitStamp stamps_b(adj_.size());
    const auto event =
        event_flood_search(from, params, neighbors, has, delay, stamps_b);

    EXPECT_EQ(eager.query_messages, event.query_messages);
    EXPECT_EQ(eager.nodes_reached, event.nodes_reached);
    EXPECT_EQ(eager.reply_messages, event.reply_messages);

    std::set<net::NodeId> hits_a, hits_b;
    for (const auto& h : eager.hits) hits_a.insert(h.node);
    for (const auto& h : event.hits) hits_b.insert(h.node);
    EXPECT_EQ(hits_a, hits_b);

    if (compare_times && eager.satisfied()) {
      EXPECT_DOUBLE_EQ(eager.first_result_delay_s(),
                       event.first_result_delay_s());
    }
  }

  std::vector<std::vector<net::NodeId>> adj_;
  std::vector<bool> holder_;
};

TEST_F(EventFloodEquivalence, ConstantDelayRandomGraphs) {
  // With uniform edge delays, event-time order equals hop order, so the
  // two implementations must agree exactly — messages, reach, hit sets
  // and reply times.
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    build_random(150, 4, 0.1, seed);
    for (int hops = 1; hops <= 4; ++hops) {
      SearchParams p;
      p.max_hops = hops;
      expect_equivalent(0, p, [](net::NodeId, net::NodeId) { return 0.25; },
                        /*compare_times=*/true);
    }
  }
}

TEST_F(EventFloodEquivalence, HeterogeneousDelaysOnTrees) {
  // On trees every node has a unique path, so even per-pair-varying
  // (deterministic) delays must match exactly, including times.
  build_tree(121);
  const auto pair_delay = [](net::NodeId a, net::NodeId b) {
    return 0.01 + 0.001 * static_cast<double>((a * 31 + b * 17) % 100);
  };
  for (int hops = 1; hops <= 5; ++hops) {
    SearchParams p;
    p.max_hops = hops;
    expect_equivalent(0, p, pair_delay, /*compare_times=*/true);
  }
}

TEST_F(EventFloodEquivalence, ForwardWhenHitMode) {
  build_tree(40);
  SearchParams p;
  p.max_hops = 4;
  p.forward_when_hit = true;
  expect_equivalent(0, p,
                    [](net::NodeId, net::NodeId) { return 0.1; },
                    /*compare_times=*/true);
}

TEST_F(EventFloodEquivalence, TimeoutFiltersBothSides) {
  build_tree(121);
  SearchParams p;
  p.max_hops = 5;
  p.timeout_s = 0.35;  // cuts off deep replies at 0.1s/hop
  expect_equivalent(0, p, [](net::NodeId, net::NodeId) { return 0.1; },
                    /*compare_times=*/true);
}

TEST(EventFlood, RunsAtSimulatorOffset) {
  // A flood started at absolute time 100 schedules its hops there.
  std::vector<std::vector<net::NodeId>> adj{{1}, {0}};
  std::vector<bool> holder{false, true};
  VisitStamp stamps(2);
  SearchParams p;
  p.max_hops = 1;
  const auto out = event_flood_search(
      0, p,
      [&adj](net::NodeId n) -> const std::vector<net::NodeId>& {
        return adj[n];
      },
      [&holder](net::NodeId n) { return static_cast<bool>(holder[n]); },
      [](net::NodeId, net::NodeId) { return 1.0; }, stamps, 100.0);
  ASSERT_TRUE(out.satisfied());
  // Relative timestamps, despite the absolute-time scheduling inside.
  EXPECT_DOUBLE_EQ(out.hits[0].arrival_s, 1.0);
  EXPECT_DOUBLE_EQ(out.hits[0].reply_at_s, 2.0);
}

}  // namespace
}  // namespace dsf::core
