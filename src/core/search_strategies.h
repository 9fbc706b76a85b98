#pragma once

// The three query-cost-reduction techniques of Yang & Garcia-Molina
// ("Efficient search in peer-to-peer networks", ICDCS 2002), which §2 of
// the paper singles out as orthogonal to dynamic reconfiguration and
// usable inside the framework:
//
//  * Iterative deepening — repeated search cycles of growing depth until
//    the query is satisfied or the depth budget is exhausted.
//  * Directed BFT — the initiator forwards only to a beneficial subset of
//    its neighbors instead of all of them.
//  * Local indices — each node answers the query for every peer within a
//    radius `r` of itself, so a flood of depth d covers depth d + r.
//
// All three are implemented on top of flood_search() so they compose with
// any overlay, content predicate and delay model.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/flood_search.h"
#include "core/stats_store.h"

namespace dsf::core {

/// Outcome of an iterative-deepening search: the last cycle's outcome plus
/// accumulated cost across all cycles.
struct IterativeOutcome {
  SearchOutcome last;                ///< hits of the final (successful) cycle
  std::uint64_t total_messages = 0;  ///< query messages across every cycle
  /// Reply messages across every cycle: under faults an unsatisfied cycle
  /// may still have sent replies that were lost or arrived too late.
  std::uint64_t total_replies = 0;
  int cycles = 0;                    ///< cycles actually run
  int final_depth = 0;               ///< depth of the last cycle

  bool satisfied() const noexcept { return last.satisfied(); }
};

/// Iterative deepening: runs flood_search at each depth of `depths`
/// (ascending) until one cycle is satisfied.  Each cycle is a fresh flood,
/// so messages accumulate — the technique pays repeated shallow floods to
/// avoid one deep flood when results are nearby.  (Yang & GM's "frozen
/// query" refinement resumes at the previous frontier instead of
/// re-flooding; the re-flood model is the conservative upper bound on
/// cost and keeps cycles independent.)
template <typename NeighborsFn, typename HasContentFn, typename DelayFn,
          typename TransmitFn>
IterativeOutcome iterative_deepening_search(
    net::NodeId initiator, const SearchParams& base,
    const std::vector<int>& depths, NeighborsFn&& neighbors,
    HasContentFn&& has_content, DelayFn&& delay, TransmitFn&& transmit,
    VisitStamp& stamps, SearchScratch& scratch) {
  IterativeOutcome out;
  for (int depth : depths) {
    SearchParams params = base;
    params.max_hops = depth;
    // Each cycle is an independent flood; flood_search re-begins the
    // transmit policy with the cycle's own hop budget, so TTL bookkeeping
    // (the invariant checker's monotonicity context) resets per cycle.
    out.last = flood_search(initiator, params, neighbors, has_content, delay,
                            transmit, stamps, scratch);
    out.total_messages += out.last.query_messages;
    out.total_replies += out.last.reply_messages;
    ++out.cycles;
    out.final_depth = depth;
    if (out.last.satisfied()) break;
  }
  return out;
}

/// Builds the canonical depth ladder for a hop budget `max_hops`:
/// {ceil(h/2), h} — one cheap probe of the near neighborhood, then the
/// full-depth flood.  For h <= 1 a single cycle.
std::vector<int> default_depth_ladder(int max_hops);

/// Directed BFT: the initiator forwards only to its `fanout` most
/// beneficial neighbors according to `stats` (ties and unknown neighbors
/// ranked after known ones, by id).  Intermediate nodes flood normally, as
/// in Yang & GM.  Returns the chosen subset via `chosen` for statistics.
std::vector<net::NodeId> select_directed_subset(
    const StatsStore& stats, std::span<const net::NodeId> neighbors,
    std::size_t fanout);

/// Runs a flood in which the initiator uses only `subset` as its first-hop
/// targets; every other node forwards through its full neighbor list.
template <typename NeighborsFn, typename HasContentFn, typename DelayFn,
          typename TransmitFn>
SearchOutcome directed_flood_search(
    net::NodeId initiator, const SearchParams& params,
    const std::vector<net::NodeId>& subset, NeighborsFn&& neighbors,
    HasContentFn&& has_content, DelayFn&& delay, TransmitFn&& transmit,
    VisitStamp& stamps, SearchScratch& scratch) {
  // NeighborView so `neighbors` may return either a vector reference or a
  // span over compact storage (both convert).
  auto patched = [&](net::NodeId n) -> std::span<const net::NodeId> {
    if (n == initiator) return subset;
    return neighbors(n);
  };
  return flood_search(initiator, params, patched, has_content, delay,
                      transmit, stamps, scratch);
}

/// Local indices with radius 1: every visited node answers for itself AND
/// its direct neighbors (it maintains an index over their content), so a
/// depth-d flood covers depth d+1.  A holder discovered through a peer's
/// index replies through that peer; `index_lookup(n, out)` must append the
/// nodes whose content `n` indexes (typically `neighbors(n)`).
///
/// The caller accounts for index maintenance separately (content digests
/// exchanged whenever a link forms — see the Gnutella scenario).
template <typename NeighborsFn, typename HasContentFn, typename DelayFn,
          typename TransmitFn>
SearchOutcome indexed_flood_search(net::NodeId initiator,
                                   const SearchParams& params,
                                   NeighborsFn&& neighbors,
                                   HasContentFn&& has_content, DelayFn&& delay,
                                   TransmitFn&& transmit, VisitStamp& stamps,
                                   VisitStamp& hit_stamps,
                                   SearchScratch& scratch) {
  SearchOutcome out;
  transmit.begin(params.max_hops);
  stamps.begin_search();
  stamps.mark(initiator);
  hit_stamps.begin_search();

  // The initiator indexes its own neighbors too: hits there are "hop 0"
  // lookups answered before any message is sent.
  auto record_hit = [&](net::NodeId holder, net::NodeId via, int hop,
                        double arrival) {
    if (!hit_stamps.mark(holder)) return false;
    const double reply_at =
        via == initiator ? arrival : arrival + delay(via, initiator);
    if (reply_at > params.timeout_s) return false;
    TransmitResult tr;  // hop-0 index hits are answered locally: no message
    if (via != initiator) {
      ++out.reply_messages;
      tr = transmit(net::MessageType::kQueryReply, via, initiator, -1);
      if (tr.duplicate) ++out.reply_messages;
    }
    if (!tr.deliver || reply_at + tr.extra_delay_s > params.timeout_s)
      return false;
    out.hits.push_back({holder, hop, arrival, reply_at + tr.extra_delay_s});
    return true;
  };

  auto& queue = scratch.queue;
  queue.clear();
  queue.push_back({initiator, net::kInvalidNode, 0, 0.0});

  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto cur = queue[head];
    // Index lookup at the current node: covers its whole neighbor list.
    bool found_via_index = false;
    for (net::NodeId indexed : neighbors(cur.node)) {
      if (has_content(indexed))
        found_via_index |= record_hit(indexed, cur.node, cur.hop, cur.arrival_s);
    }
    if (found_via_index && !params.forward_when_hit) continue;
    if (cur.hop >= params.max_hops) continue;

    for (net::NodeId nbr : neighbors(cur.node)) {
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
      bool forward = true;
      if (has_content(nbr)) {
        record_hit(nbr, nbr, hop, arrival);
        if (!params.forward_when_hit) forward = false;
      }
      if (forward) queue.push_back({nbr, cur.node, hop, arrival});
    }
  }
  return out;
}

}  // namespace dsf::core
