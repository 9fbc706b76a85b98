// Randomized differential test: the flat StatsStore and the template
// plan_update against the node-based store and full-sort planner they
// replaced.  The oracle below is that implementation, kept verbatim in
// behavior: a std::unordered_map of cumulative benefits and a planner that
// std::sorts every candidate under (benefit desc, current first, id asc)
// before truncating to the capacity.
//
// One seeded stream of add/reset/clear/decay operations drives the oracle
// and two flat stores.  The second flat store is periodically rebuilt from
// its own entries in a shuffled order (as a snapshot restore rebuilds a
// store in id order), so the two hold the same statistics in different
// entry orders.  After every operation both must answer benefit_of, knows
// and size bit-for-bit like the oracle, and a plan for random capacities
// (0–8), eligibility masks and current lists (peers with and without
// statistics) must reproduce the oracle's new_out, additions and
// evictions exactly.

#include "core/stats_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/update.h"
#include "des/rng.h"
#include "net/node_id.h"

namespace dsf::core {
namespace {

/// The unordered_map store the flat vector replaced.
class OracleStore {
 public:
  void add(net::NodeId peer, double delta) { benefit_[peer] += delta; }
  double benefit_of(net::NodeId peer) const {
    const auto it = benefit_.find(peer);
    return it == benefit_.end() ? 0.0 : it->second;
  }
  bool knows(net::NodeId peer) const { return benefit_.count(peer) != 0; }
  void reset(net::NodeId peer) { benefit_.erase(peer); }
  void clear() { benefit_.clear(); }
  void decay(double factor) {
    for (auto& [peer, b] : benefit_) b *= factor;
  }
  std::size_t size() const { return benefit_.size(); }
  const std::unordered_map<net::NodeId, double>& entries() const {
    return benefit_;
  }

 private:
  std::unordered_map<net::NodeId, double> benefit_;
};

bool in(std::span<const net::NodeId> v, net::NodeId n) {
  return std::find(v.begin(), v.end(), n) != v.end();
}

/// The full-sort planner the template plan_update replaced.
UpdatePlan oracle_plan(const OracleStore& stats,
                       std::span<const net::NodeId> current_out,
                       std::size_t capacity,
                       const std::vector<bool>& eligible) {
  struct Ranked {
    double benefit;
    bool is_current;
    net::NodeId node;
  };
  std::vector<Ranked> ranked;
  for (const auto& [peer, b] : stats.entries()) {
    if (!eligible[peer]) continue;
    ranked.push_back({b, in(current_out, peer), peer});
  }
  for (net::NodeId n : current_out) {
    if (!stats.knows(n) && eligible[n]) ranked.push_back({0.0, true, n});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.benefit != b.benefit) return a.benefit > b.benefit;
    if (a.is_current != b.is_current) return a.is_current;
    return a.node < b.node;
  });
  if (ranked.size() > capacity) ranked.resize(capacity);

  UpdatePlan plan;
  for (const Ranked& r : ranked) plan.new_out.push_back(r.node);
  for (net::NodeId n : plan.new_out)
    if (!in(current_out, n)) plan.additions.push_back(n);
  for (net::NodeId n : current_out)
    if (!in(plan.new_out, n)) plan.evictions.push_back(n);
  return plan;
}

class StatsHarness {
 public:
  // 96 peers: the largest store seen when plan_update runs on the perfbench
  // workloads.
  static constexpr net::NodeId kPeers = 96;

  explicit StatsHarness(std::uint64_t seed) : rng_(seed) {}

  void run(std::size_t ops) {
    for (std::size_t k = 0; k < ops; ++k) {
      step();
      check_values();
      check_plan();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

 private:
  net::NodeId peer() {
    return static_cast<net::NodeId>(rng_.uniform_int(kPeers));
  }

  double delta() {
    // A small set of values makes equal benefits (and so every tie-break)
    // common; -0.0 checks that a first add stores +0.0 like the map did.
    static constexpr double kDeltas[] = {-0.0, 0.0, 0.25, 0.5, 1.0, 3.0};
    if (rng_.bernoulli(0.8)) return kDeltas[rng_.uniform_int(6)];
    return rng_.uniform(0.0, 4.0);
  }

  void step() {
    const std::uint64_t op = rng_.uniform_int(100);
    if (op < 70) {
      const net::NodeId p = peer();
      const double d = delta();
      oracle_.add(p, d);
      a_.add(p, d);
      b_.add(p, d);
    } else if (op < 90) {
      const net::NodeId p = peer();
      oracle_.reset(p);
      a_.reset(p);
      b_.reset(p);
    } else if (op < 96) {
      static constexpr double kFactors[] = {0.5, 0.25, 1.0};
      const double f = kFactors[rng_.uniform_int(3)];
      oracle_.decay(f);
      a_.decay(f);
      b_.decay(f);
    } else if (op < 98) {
      oracle_.clear();
      a_.clear();
      b_.clear();
    } else {
      reshuffle_b();
    }
  }

  /// Rebuilds `b_` from its own entries in a random order.
  void reshuffle_b() {
    std::vector<StatsEntry> entries(b_.entries().begin(), b_.entries().end());
    for (std::size_t i = entries.size(); i > 1; --i)
      std::swap(entries[i - 1], entries[rng_.uniform_int(i)]);
    b_.clear();
    for (const StatsEntry& e : entries) b_.add(e.peer, e.benefit);
  }

  void check_values() {
    ASSERT_EQ(a_.size(), oracle_.size());
    ASSERT_EQ(b_.size(), oracle_.size());
    for (net::NodeId p = 0; p < kPeers; ++p) {
      const auto want = std::bit_cast<std::uint64_t>(oracle_.benefit_of(p));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a_.benefit_of(p)), want) << p;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(b_.benefit_of(p)), want) << p;
      ASSERT_EQ(a_.knows(p), oracle_.knows(p)) << p;
      ASSERT_EQ(b_.knows(p), oracle_.knows(p)) << p;
    }
  }

  void check_plan() {
    const std::size_t capacity = rng_.uniform_int(9);
    std::vector<bool> eligible(kPeers);
    const double p_eligible = rng_.bernoulli(0.3) ? 1.0 : rng_.uniform();
    for (net::NodeId p = 0; p < kPeers; ++p)
      eligible[p] = rng_.bernoulli(p_eligible);

    // Current neighbors: some drawn from the known peers, some from the
    // whole population (mostly without statistics), in random order.
    std::vector<net::NodeId> current;
    const std::size_t want = rng_.uniform_int(9);
    const auto known = a_.entries();
    for (int tries = 0; current.size() < want && tries < 64; ++tries) {
      const net::NodeId n = (!known.empty() && rng_.bernoulli(0.5))
                                ? known[rng_.uniform_int(known.size())].peer
                                : peer();
      if (!in(current, n)) current.push_back(n);
    }

    const auto is_eligible = [&eligible](net::NodeId n) { return eligible[n]; };
    const UpdatePlan want_plan =
        oracle_plan(oracle_, current, capacity, eligible);
    for (const StatsStore* s : {&a_, &b_}) {
      const UpdatePlan got = plan_update(*s, current, capacity, is_eligible);
      ASSERT_EQ(got.new_out, want_plan.new_out) << "capacity " << capacity;
      ASSERT_EQ(got.additions, want_plan.additions);
      ASSERT_EQ(got.evictions, want_plan.evictions);
    }
  }

  des::Rng rng_;
  OracleStore oracle_;
  StatsStore a_;  ///< same operation order as the oracle
  StatsStore b_;  ///< same statistics, periodically reshuffled
};

TEST(StatsStoreDifferential, MatchesMapStoreAndFullSortPlanner) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    StatsHarness h(seed);
    h.run(1500);
    if (HasFatalFailure()) return;
  }
}

TEST(StatsStoreDifferential, InsertionOrderDoesNotChangeThePlan) {
  // The same statistics inserted in ascending and descending id order,
  // with many exact ties, plan identically at every capacity.
  StatsStore up;
  StatsStore down;
  for (net::NodeId n = 0; n < 40; ++n) up.add(n, static_cast<double>(n % 5));
  for (net::NodeId n = 40; n-- > 0;) down.add(n, static_cast<double>(n % 5));
  const std::vector<net::NodeId> current = {7, 3, 41, 12};
  const auto all_but_12 = [](net::NodeId n) { return n != 12; };
  for (std::size_t cap = 0; cap <= 8; ++cap) {
    const auto a = plan_update(up, current, cap, all_but_12);
    const auto b = plan_update(down, current, cap, all_but_12);
    EXPECT_EQ(a.new_out, b.new_out) << cap;
    EXPECT_EQ(a.additions, b.additions) << cap;
    EXPECT_EQ(a.evictions, b.evictions) << cap;
  }
}

TEST(StatsStoreDifferential, ResetSwapPopsAndKeepsTheRest) {
  StatsStore s;
  for (net::NodeId n = 1; n <= 5; ++n) s.add(n, static_cast<double>(n));
  s.reset(2);
  s.reset(5);  // the last entry
  s.reset(9);  // unknown: no-op
  EXPECT_EQ(s.size(), 3u);
  for (net::NodeId n : {1u, 3u, 4u})
    EXPECT_DOUBLE_EQ(s.benefit_of(n), static_cast<double>(n)) << n;
  EXPECT_FALSE(s.knows(2));
  EXPECT_FALSE(s.knows(5));
}

}  // namespace
}  // namespace dsf::core
