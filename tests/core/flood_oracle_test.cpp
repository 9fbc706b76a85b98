// Flood message counts against a closed form from outside the code.  On a
// simple d-regular graph a TTL-t flood sends d messages from the initiator
// and d - 1 from every first-time receiver below the hop limit, so a
// cycle-free neighborhood costs d·((d−1)^t − 1)/(d − 2) query messages:
// 4, 16, 52 and 160 at d = 4 and t = 1..4.  Cycles can only remove
// forwards (a duplicate is counted but not forwarded), never add them.
// Up to t = 2 no duplicate can forward, so every initiator hits the bound
// exactly; at t = 3 and 4 a random 100k-node graph has so few short
// cycles that the mean stays within 1% of it.  Both the eager flood and
// the event-driven reference must agree with the oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/event_flood.h"
#include "core/flood_search.h"
#include "des/rng.h"

namespace dsf::core {
namespace {

constexpr std::size_t kNodes = 100'000;
constexpr int kDegree = 4;

/// d·((d−1)^t − 1)/(d − 2), the flood's message count on a tree.
std::uint64_t closed_form(int d, int t) {
  std::uint64_t pow = 1;
  for (int i = 0; i < t; ++i) pow *= static_cast<std::uint64_t>(d - 1);
  return static_cast<std::uint64_t>(d) * (pow - 1) /
         static_cast<std::uint64_t>(d - 2);
}

/// A uniformly paired random d-regular multigraph (configuration model)
/// made simple by degree-preserving switches: each self-loop or repeated
/// edge trades endpoints with a random edge until neither pair is bad.
std::vector<std::vector<net::NodeId>> random_regular(std::size_t n, int d,
                                                     std::uint64_t seed) {
  des::Rng rng(seed);
  std::vector<net::NodeId> stubs;
  stubs.reserve(n * static_cast<std::size_t>(d));
  for (net::NodeId u = 0; u < n; ++u)
    for (int k = 0; k < d; ++k) stubs.push_back(u);
  for (std::size_t i = stubs.size(); i > 1; --i)
    std::swap(stubs[i - 1], stubs[rng.uniform_int(i)]);

  using Edge = std::pair<net::NodeId, net::NodeId>;
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < stubs.size(); i += 2)
    edges.emplace_back(stubs[i], stubs[i + 1]);
  const auto key = [n](net::NodeId a, net::NodeId b) {
    return std::uint64_t{std::min(a, b)} * n + std::max(a, b);
  };
  std::unordered_map<std::uint64_t, int> multiplicity;
  for (const Edge& e : edges) ++multiplicity[key(e.first, e.second)];
  const auto bad = [&](const Edge& e) {
    return e.first == e.second || multiplicity[key(e.first, e.second)] > 1;
  };
  for (Edge& e : edges) {
    while (bad(e)) {
      Edge& other = edges[rng.uniform_int(edges.size())];
      const Edge x{e.first, other.first};
      const Edge y{e.second, other.second};
      if (&other == &e || x.first == x.second || y.first == y.second ||
          key(x.first, x.second) == key(y.first, y.second) ||
          multiplicity[key(x.first, x.second)] > 0 ||
          multiplicity[key(y.first, y.second)] > 0)
        continue;
      --multiplicity[key(e.first, e.second)];
      --multiplicity[key(other.first, other.second)];
      ++multiplicity[key(x.first, x.second)];
      ++multiplicity[key(y.first, y.second)];
      e = x;
      other = y;
    }
  }
  std::vector<std::vector<net::NodeId>> adj(n);
  for (const Edge& e : edges) {
    adj[e.first].push_back(e.second);
    adj[e.second].push_back(e.first);
  }
  return adj;
}

class FloodOracle : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    adj_ = new std::vector<std::vector<net::NodeId>>(
        random_regular(kNodes, kDegree, 20261019));
  }
  static void TearDownTestSuite() {
    delete adj_;
    adj_ = nullptr;
  }

  /// Query messages of one TTL-`hops` flood from `initiator`, eager and
  /// event-driven; no node holds the item and every hop takes 0.1 s.
  static std::pair<std::uint64_t, std::uint64_t> floods(net::NodeId initiator,
                                                        int hops) {
    SearchParams params;
    params.max_hops = hops;
    const auto neighbors =
        [](net::NodeId x) -> const std::vector<net::NodeId>& {
      return (*adj_)[x];
    };
    const auto holds = [](net::NodeId) { return false; };
    const auto delay = [](net::NodeId, net::NodeId) { return 0.1; };
    static VisitStamp stamps(kNodes);
    static SearchScratch scratch;
    const auto eager =
        flood_search(initiator, params, neighbors, holds, delay, stamps,
                     scratch);
    const auto event =
        event_flood_search(initiator, params, neighbors, holds, delay, stamps);
    return {eager.query_messages, event.query_messages};
  }

  static std::vector<std::vector<net::NodeId>>* adj_;
};

std::vector<std::vector<net::NodeId>>* FloodOracle::adj_ = nullptr;

TEST_F(FloodOracle, GraphIsSimpleAndRegular) {
  for (net::NodeId u = 0; u < kNodes; ++u) {
    std::vector<net::NodeId> nbrs = (*adj_)[u];
    ASSERT_EQ(nbrs.size(), static_cast<std::size_t>(kDegree)) << u;
    std::sort(nbrs.begin(), nbrs.end());
    ASSERT_TRUE(std::adjacent_find(nbrs.begin(), nbrs.end()) == nbrs.end())
        << "repeated edge at " << u;
    ASSERT_FALSE(std::binary_search(nbrs.begin(), nbrs.end(), u))
        << "self-loop at " << u;
  }
}

TEST_F(FloodOracle, ExactCountsAtOneAndTwoHops) {
  for (const int hops : {1, 2}) {
    const std::uint64_t expect = closed_form(kDegree, hops);
    EXPECT_EQ(expect, hops == 1 ? 4u : 16u);
    for (net::NodeId u = 0; u < kNodes; ++u) {
      const auto [eager, event] = floods(u, hops);
      ASSERT_EQ(eager, expect) << "initiator " << u << ", TTL " << hops;
      ASSERT_EQ(event, expect) << "initiator " << u << ", TTL " << hops;
    }
  }
}

TEST_F(FloodOracle, MeanCountsAtThreeAndFourHopsWithinOnePercent) {
  constexpr net::NodeId kInitiators = 2000;
  constexpr net::NodeId kStride = kNodes / kInitiators;
  for (const int hops : {3, 4}) {
    const std::uint64_t bound = closed_form(kDegree, hops);
    EXPECT_EQ(bound, hops == 3 ? 52u : 160u);
    double eager_sum = 0.0;
    double event_sum = 0.0;
    for (net::NodeId i = 0; i < kInitiators; ++i) {
      const auto [eager, event] = floods(i * kStride, hops);
      ASSERT_LE(eager, bound) << "cycles cannot add forwards";
      ASSERT_LE(event, bound) << "cycles cannot add forwards";
      eager_sum += static_cast<double>(eager);
      event_sum += static_cast<double>(event);
    }
    const double b = static_cast<double>(bound);
    EXPECT_NEAR(eager_sum / kInitiators, b, 0.01 * b) << "TTL " << hops;
    EXPECT_NEAR(event_sum / kInitiators, b, 0.01 * b) << "TTL " << hops;
  }
}

}  // namespace
}  // namespace dsf::core
