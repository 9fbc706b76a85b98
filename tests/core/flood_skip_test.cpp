// The flood skips the delay draw of a delivery whose arrival time nothing
// reads (a first delivery at the last hop to a node without the item),
// through the binding's skip().  These tests run flood, iterative
// deepening and directed BFT three ways over the same random graphs and
// the same draws:
//   * with net::DelayLane, the engine's binding, which has skip();
//   * with a plain lambda over the same model, which the flood calls and
//     whose value it drops;
//   * with an eager reference flood (below) that draws every first
//     delivery's delay and reads it, as the flood did before the skip.
// All three must give the same SearchOutcome, hit times bit-equal, and
// leave their delay lanes in the same state after every search.  The
// configurations cover hops 1-4, forward_when_hit both ways, a finite
// timeout, and a transport that drops, duplicates and delays copies.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/flood_search.h"
#include "core/search_strategies.h"
#include "core/visit_stamp.h"
#include "des/rng.h"
#include "net/delay_model.h"

namespace dsf::core {
namespace {

using net::NodeId;

/// The flood as it was before the skip: every first delivery draws its
/// delay.  Kept as the oracle the skipping flood must reproduce.
template <typename NeighborsFn, typename HasContentFn, typename DelayFn,
          typename TransmitFn>
SearchOutcome eager_flood(NodeId initiator, const SearchParams& params,
                          NeighborsFn&& neighbors, HasContentFn&& has_content,
                          DelayFn&& delay, TransmitFn&& transmit,
                          VisitStamp& stamps, SearchScratch& scratch) {
  SearchOutcome out;
  transmit.begin(params.max_hops);
  stamps.begin_search();
  stamps.mark(initiator);
  auto& queue = scratch.queue;
  queue.clear();
  queue.push_back({initiator, net::kInvalidNode, 0, 0.0});
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto cur = queue[head];
    if (cur.hop >= params.max_hops) continue;
    for (NodeId nbr : neighbors(cur.node)) {
      if (nbr == cur.sender) continue;
      ++out.query_messages;
      const TransmitResult tq = transmit(net::MessageType::kQuery, cur.node,
                                         nbr, params.max_hops - cur.hop);
      if (tq.duplicate) ++out.query_messages;
      if (!tq.deliver) continue;
      if (!stamps.mark(nbr)) continue;
      const double arrival =
          cur.arrival_s + delay(cur.node, nbr) + tq.extra_delay_s;
      ++out.nodes_reached;
      const int hop = cur.hop + 1;
      bool forward = hop < params.max_hops;
      if (has_content(nbr)) {
        const double reply_at = arrival + delay(nbr, initiator);
        if (reply_at <= params.timeout_s) {
          ++out.reply_messages;
          const TransmitResult tr =
              transmit(net::MessageType::kQueryReply, nbr, initiator, -1);
          if (tr.duplicate) ++out.reply_messages;
          if (tr.deliver && reply_at + tr.extra_delay_s <= params.timeout_s)
            out.hits.push_back(
                {nbr, hop, arrival, reply_at + tr.extra_delay_s});
        }
        if (!params.forward_when_hit) forward = false;
      }
      if (forward) queue.push_back({nbr, cur.node, hop, arrival});
    }
  }
  return out;
}

/// A transport that loses, duplicates and delays copies from its own
/// lane; twins built from one seed give the same verdicts in the same
/// order.
struct LossyTransmit {
  des::Rng rng;
  void begin(int /*max_ttl*/) const {}
  TransmitResult operator()(net::MessageType, NodeId, NodeId, int) {
    TransmitResult r;
    r.deliver = !rng.bernoulli(0.1);
    r.duplicate = rng.bernoulli(0.1);
    if (rng.bernoulli(0.2)) r.extra_delay_s = rng.uniform(0.0, 0.2);
    return r;
  }
};

/// The engine's binding, counting the draws it skips.
struct CountingLane : net::DelayLane {
  std::uint64_t* skips;
  void skip(NodeId from, NodeId to) const {
    ++*skips;
    net::DelayLane::skip(from, to);
  }
};

enum class Scheme { kFlood, kIterative, kDirected };

/// The first difference between two outcomes, or "" when they are equal
/// (hit times compared bit for bit).
std::string difference(const SearchOutcome& a, const SearchOutcome& b) {
  std::ostringstream d;
  if (a.query_messages != b.query_messages)
    d << "query_messages " << a.query_messages << " vs " << b.query_messages;
  else if (a.reply_messages != b.reply_messages)
    d << "reply_messages " << a.reply_messages << " vs " << b.reply_messages;
  else if (a.nodes_reached != b.nodes_reached)
    d << "nodes_reached " << a.nodes_reached << " vs " << b.nodes_reached;
  else if (a.hits.size() != b.hits.size())
    d << "hits " << a.hits.size() << " vs " << b.hits.size();
  for (std::size_t i = 0; d.str().empty() && i < a.hits.size(); ++i) {
    const SearchHit& x = a.hits[i];
    const SearchHit& y = b.hits[i];
    if (x.node != y.node || x.hop != y.hop ||
        std::bit_cast<std::uint64_t>(x.arrival_s) !=
            std::bit_cast<std::uint64_t>(y.arrival_s) ||
        std::bit_cast<std::uint64_t>(x.reply_at_s) !=
            std::bit_cast<std::uint64_t>(y.reply_at_s))
      d << "hit " << i << ": node " << x.node << " vs " << y.node
        << ", arrival " << x.arrival_s << " vs " << y.arrival_s
        << ", reply " << x.reply_at_s << " vs " << y.reply_at_s;
  }
  return d.str();
}

/// Iterative deepening folded as sim::dispatch_search folds it: the last
/// cycle's hits, every cycle's messages.
SearchOutcome fold(IterativeOutcome it) {
  SearchOutcome out = std::move(it.last);
  out.query_messages = it.total_messages;
  out.reply_messages = it.total_replies;
  return out;
}

class SkipHarness {
 public:
  explicit SkipHarness(std::uint64_t seed)
      : rng_(seed), adj_(kNodes), holders_(kNodes, 0), stamps_(kNodes),
        model_(kNodes, rng_) {
    // A random simple graph of mean degree ~4, with isolated and leaf
    // nodes among the rest.
    for (int e = 0; e < 2 * static_cast<int>(kNodes); ++e) {
      const auto a = static_cast<NodeId>(rng_.uniform_int(kNodes));
      const auto b = static_cast<NodeId>(rng_.uniform_int(kNodes));
      if (a == b || linked(a, b)) continue;
      adj_[a].push_back(b);
      adj_[b].push_back(a);
    }
  }

  /// Runs `searches` searches of `scheme` under `params` three ways and
  /// checks them against each other after every search.
  void check(Scheme scheme, const SearchParams& params, bool lossy,
             int searches) {
    const std::uint64_t lane_seed = rng_.next();
    des::Rng lane_skip(lane_seed), lane_plain(lane_seed), lane_ref(lane_seed);
    const std::uint64_t transport_seed = rng_.next();
    LossyTransmit t_skip{des::Rng(transport_seed)};
    LossyTransmit t_plain{des::Rng(transport_seed)};
    LossyTransmit t_ref{des::Rng(transport_seed)};
    const CountingLane skipping{{&model_, &lane_skip}, &skips_};
    const auto plain = [&](NodeId a, NodeId b) {
      return model_.sample_delay_s(a, b, lane_plain);
    };
    const auto reference = [&](NodeId a, NodeId b) {
      return model_.sample_delay_s(a, b, lane_ref);
    };
    for (int q = 0; q < searches; ++q) {
      const auto initiator = static_cast<NodeId>(rng_.uniform_int(kNodes));
      for (auto& h : holders_) h = rng_.bernoulli(0.04);
      const SearchOutcome a =
          lossy ? library(scheme, initiator, params, skipping, t_skip)
                : library(scheme, initiator, params, skipping,
                          ReliableTransmit{});
      const SearchOutcome b =
          lossy ? library(scheme, initiator, params, plain, t_plain)
                : library(scheme, initiator, params, plain,
                          ReliableTransmit{});
      const SearchOutcome r =
          lossy ? eager(scheme, initiator, params, reference, t_ref)
                : eager(scheme, initiator, params, reference,
                        ReliableTransmit{});
      ASSERT_EQ(difference(a, b), "") << "search " << q << ": skip vs plain";
      ASSERT_EQ(difference(a, r), "") << "search " << q << ": skip vs eager";
      ASSERT_EQ(lane_skip.state(), lane_plain.state()) << "search " << q;
      ASSERT_EQ(lane_skip.state(), lane_ref.state()) << "search " << q;
    }
  }

  std::uint64_t skips() const { return skips_; }

 private:
  static constexpr std::size_t kNodes = 300;

  bool linked(NodeId a, NodeId b) const {
    for (NodeId n : adj_[a])
      if (n == b) return true;
    return false;
  }

  auto neighbors() {
    return [this](NodeId n) -> std::span<const NodeId> { return adj_[n]; };
  }
  auto has_content() {
    return [this](NodeId n) { return holders_[n] != 0; };
  }
  /// Directed BFT's first hop: the initiator's first two neighbors.
  std::vector<NodeId> subset(NodeId initiator) const {
    const auto& all = adj_[initiator];
    return {all.begin(), all.begin() + std::min<std::size_t>(2, all.size())};
  }

  template <typename DelayFn, typename TransmitFn>
  SearchOutcome library(Scheme scheme, NodeId initiator,
                        const SearchParams& params, DelayFn&& delay,
                        TransmitFn&& transmit) {
    switch (scheme) {
      case Scheme::kFlood:
        return flood_search(initiator, params, neighbors(), has_content(),
                            delay, transmit, stamps_, scratch_);
      case Scheme::kIterative:
        return fold(iterative_deepening_search(
            initiator, params, default_depth_ladder(params.max_hops),
            neighbors(), has_content(), delay, transmit, stamps_, scratch_));
      case Scheme::kDirected:
        return directed_flood_search(initiator, params, subset(initiator),
                                     neighbors(), has_content(), delay,
                                     transmit, stamps_, scratch_);
    }
    return {};
  }

  template <typename DelayFn, typename TransmitFn>
  SearchOutcome eager(Scheme scheme, NodeId initiator,
                      const SearchParams& params, DelayFn&& delay,
                      TransmitFn&& transmit) {
    switch (scheme) {
      case Scheme::kFlood:
        return eager_flood(initiator, params, neighbors(), has_content(),
                           delay, transmit, stamps_, scratch_);
      case Scheme::kIterative: {
        IterativeOutcome it;
        for (int depth : default_depth_ladder(params.max_hops)) {
          SearchParams cycle = params;
          cycle.max_hops = depth;
          it.last = eager_flood(initiator, cycle, neighbors(), has_content(),
                                delay, transmit, stamps_, scratch_);
          it.total_messages += it.last.query_messages;
          it.total_replies += it.last.reply_messages;
          if (it.last.satisfied()) break;
        }
        return fold(std::move(it));
      }
      case Scheme::kDirected: {
        const std::vector<NodeId> first = subset(initiator);
        auto patched = [&](NodeId n) -> std::span<const NodeId> {
          if (n == initiator) return first;
          return adj_[n];
        };
        return eager_flood(initiator, params, patched, has_content(), delay,
                           transmit, stamps_, scratch_);
      }
    }
    return {};
  }

  des::Rng rng_;
  std::vector<std::vector<NodeId>> adj_;
  std::vector<char> holders_;
  VisitStamp stamps_;
  SearchScratch scratch_;
  net::DelayModel model_;
  std::uint64_t skips_ = 0;
};

void run_scheme(Scheme scheme, std::uint64_t seed) {
  SkipHarness h(seed);
  for (int hops = 1; hops <= 4; ++hops) {
    for (bool forward_when_hit : {false, true}) {
      for (double timeout : {std::numeric_limits<double>::infinity(), 0.5}) {
        for (bool lossy : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << "hops " << hops << " forward_when_hit "
                       << forward_when_hit << " timeout " << timeout
                       << " lossy " << lossy);
          SearchParams params;
          params.max_hops = hops;
          params.forward_when_hit = forward_when_hit;
          params.timeout_s = timeout;
          h.check(scheme, params, lossy, 40);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
  // The skip path ran, so the equalities above cover it.
  EXPECT_GT(h.skips(), 0u);
}

TEST(FloodSkipDifferential, Flood) { run_scheme(Scheme::kFlood, 0xF10); }

TEST(FloodSkipDifferential, IterativeDeepening) {
  run_scheme(Scheme::kIterative, 0xF11);
}

TEST(FloodSkipDifferential, DirectedBft) {
  run_scheme(Scheme::kDirected, 0xF12);
}

}  // namespace
}  // namespace dsf::core
