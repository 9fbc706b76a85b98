#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/visit_stamp.h"
#include "net/message.h"
#include "net/node_id.h"

namespace dsf::core {

/// What the transport decided for one transmission.  The default describes
/// a perfectly reliable network: one copy, delivered, on time.  The fault
/// layer (sim/fault.h) returns non-default results to model lossy links.
struct TransmitResult {
  bool deliver = true;        ///< false: the copy was lost in the network
  bool duplicate = false;     ///< true: a second copy was transmitted too
  double extra_delay_s = 0.0; ///< congestion delay added to propagation
};

/// The no-op transport policy: every transmission succeeds.  Passing this
/// to the transmit-aware searches compiles down to the historical
/// fault-free bodies, so flood_search's reliable overload stays
/// bit-identical.
struct ReliableTransmit {
  /// Called once per search (or per iterative-deepening cycle) with the
  /// cycle's hop budget, before any transmission is attempted.
  constexpr void begin(int /*max_ttl*/) const noexcept {}
  constexpr TransmitResult operator()(net::MessageType /*type*/,
                                      net::NodeId /*from*/, net::NodeId /*to*/,
                                      int /*ttl*/) const noexcept {
    return {};
  }
};

/// Parameters of the generic search algorithm (§3.2, Algo 1).
struct SearchParams {
  /// Propagation terminating condition: maximum hops a query may traverse
  /// (Squid uses 1, Gnutella up to 7; the case study sweeps 1–5).
  int max_hops = 5;
  /// §4.1: "if a neighbor contains the query results, it replies to the
  /// initiator without further propagating the query".  Extensive-search
  /// systems (music sharing that maximizes result count) set this true.
  bool forward_when_hit = false;
  /// Initiator-side collection timeout; replies arriving later are dropped
  /// and do not contribute hits or statistics.
  double timeout_s = std::numeric_limits<double>::infinity();
};

/// One result of a search: a node holding the requested content, when the
/// query reached it, when its direct reply lands back at the initiator,
/// and — for the ranked scheme — the result's score.  Exact-match schemes
/// leave the score at 0.0.
struct SearchHit {
  net::NodeId node = net::kInvalidNode;
  int hop = 0;               ///< hops from the initiator
  double arrival_s = 0.0;    ///< query arrival time at `node` (relative)
  double reply_at_s = 0.0;   ///< reply arrival back at the initiator
  double score = 0.0;        ///< ranked score (0 = unscored)
};

/// Outcome of one query, common to every scheme.  Exact-match floods leave
/// the ranked fields (k_target, pruned_subtrees, scores) at their zero
/// defaults, so the historical aggregate paths read identical values.
struct SearchOutcome {
  std::vector<SearchHit> hits;
  std::uint64_t query_messages = 0;  ///< query propagations (the paper's
                                     ///< "messages" metric)
  std::uint64_t reply_messages = 0;  ///< direct replies to the initiator
  std::uint32_t nodes_reached = 0;   ///< distinct nodes that processed it
  /// Ranked schemes: subtree forwards withheld because their known score
  /// bound could not beat the initiator's floor (the saved transmissions).
  std::uint32_t pruned_subtrees = 0;
  /// Ranked schemes: the k the query asked for (0 = unranked query).
  std::uint32_t k_target = 0;

  bool satisfied() const noexcept { return !hits.empty(); }

  /// Ranked satisfaction: a top-k query is k-satisfied when it returned a
  /// full k results; an unranked query degenerates to satisfied().
  bool k_satisfied() const noexcept {
    return k_target == 0 ? satisfied() : hits.size() >= k_target;
  }

  /// Best per-hit score (0.0 when unscored or empty).
  double best_score() const noexcept {
    double best = 0.0;
    for (const auto& h : hits) best = std::max(best, h.score);
    return best;
  }

  /// The earliest-arriving hit, or nullptr when the search missed (what
  /// the scenarios' span bookkeeping reads).
  const SearchHit* first_hit() const noexcept {
    const SearchHit* first = nullptr;
    for (const auto& h : hits)
      if (!first || h.reply_at_s < first->reply_at_s) first = &h;
    return first;
  }

  /// Delay until the first result reaches the initiator (Fig 3a's metric).
  /// An unsatisfied search answers 0.0 — the same documented sentinel as
  /// metrics::Histogram::quantile on an empty histogram — so the value is
  /// always finite and NaN-safe; callers that must distinguish check
  /// satisfied() first.
  double first_result_delay_s() const noexcept {
    const SearchHit* first = first_hit();
    return first ? first->reply_at_s : 0.0;
  }
};

/// Scratch buffers reused across searches so steady-state queries allocate
/// nothing.  `queue` is the BFS frontier of the flood family; the ranked
/// scheme additionally time-orders its frontier (`heap`) and tracks the
/// replies that feed the k-th-score floor (`replies`).
struct SearchScratch {
  struct Frontier {
    net::NodeId node;
    net::NodeId sender;
    int hop;
    double arrival_s;
  };
  std::vector<Frontier> queue;
  std::vector<Frontier> heap;  ///< ranked scheme: arrival-ordered frontier
  struct RankedReply {
    double reply_at_s;
    double score;
  };
  std::vector<RankedReply> replies;  ///< ranked scheme: floor bookkeeping
  std::vector<double> floor_scores;  ///< ranked scheme: k best arrived scores
};

/// Advances `delay`'s lane past one draw whose value nothing reads:
/// through the binding's skip() when it has one, else by drawing and
/// dropping the value.
template <typename DelayFn>
void skip_delay(DelayFn& delay, net::NodeId from, net::NodeId to) {
  if constexpr (requires { delay.skip(from, to); })
    delay.skip(from, to);
  else
    (void)delay(from, to);
}

/// Generic BFS query flood over an overlay (Algo 1 with the Gnutella
/// forwarding rule: forward to every outgoing neighbor except the sender;
/// duplicate deliveries are transmitted — and therefore counted — but
/// discarded by the receiver via its recent-messages list, modeled by
/// `stamps`).
///
/// The flood is expanded eagerly with per-edge delays drawn from `delay`,
/// which is semantically equivalent to scheduling each transmission as a
/// discrete event because queries only interact through statistics applied
/// at completion (see DESIGN.md §1.4).
///
/// `neighbors(n)`  -> const std::vector<net::NodeId>& : outgoing list of n
/// `has_content(n)`-> bool : does n hold the requested item.  It must be a
///    pure lookup that draws nothing: the flood asks it before the
///    delivery's delay draw.
/// `delay(a, b)`   -> double : one-way delay seconds for this transmission
/// `delay.skip(a, b)` (optional) : advances the delay lane exactly as
///    delay(a, b) would.  A first delivery at the last hop to a node
///    without the item forwards nothing and replies nothing, so nothing
///    reads its arrival time; the flood skips that draw when the binding
///    can (net::DelayLane), and otherwise calls delay(a, b) and drops the
///    value.  Either way the lane ends where the eager draw leaves it.
/// `transmit(type, from, to, ttl)` -> TransmitResult : transport verdict
///    for one copy (ReliableTransmit, or the engine's fault layer); `ttl`
///    is the remaining hop budget carried by a query, -1 for replies.
///
/// With ReliableTransmit every TransmitResult is the default, the extra
/// delay terms add exactly 0.0, and the body reduces to the historical
/// fault-free flood — the reliable overload below delegates here and
/// replays byte-identically.
template <typename NeighborsFn, typename HasContentFn, typename DelayFn,
          typename TransmitFn>
SearchOutcome flood_search(net::NodeId initiator, const SearchParams& params,
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
    // Copy, not reference: queue.push_back below may reallocate.
    const auto cur = queue[head];
    if (cur.hop >= params.max_hops) continue;  // guards the max_hops==0 case
    for (net::NodeId nbr : neighbors(cur.node)) {
      if (nbr == cur.sender) continue;  // never echo back to the sender
      ++out.query_messages;             // transmission happens regardless
      const TransmitResult tq = transmit(net::MessageType::kQuery, cur.node,
                                         nbr, params.max_hops - cur.hop);
      if (tq.duplicate) ++out.query_messages;
      // A lost copy never reaches nbr, and crucially does not mark it:
      // the node may still be reached through another path.
      if (!tq.deliver) continue;
      if (!stamps.mark(nbr)) continue;  // duplicate: receiver discards
      ++out.nodes_reached;
      const int hop = cur.hop + 1;
      bool forward = hop < params.max_hops;
      const bool holds = has_content(nbr);
      // Delay is sampled only for first deliveries: duplicates are counted
      // above but need no timestamp, which halves RNG work in the flood.
      // A last-hop non-holder's arrival is never read either.
      if (!holds && !forward) {
        skip_delay(delay, cur.node, nbr);
        continue;
      }
      const double arrival =
          cur.arrival_s + delay(cur.node, nbr) + tq.extra_delay_s;
      if (holds) {
        const double reply_at = arrival + delay(nbr, initiator);
        if (reply_at <= params.timeout_s) {
          ++out.reply_messages;
          const TransmitResult tr =
              transmit(net::MessageType::kQueryReply, nbr, initiator, -1);
          if (tr.duplicate) ++out.reply_messages;
          if (tr.deliver && reply_at + tr.extra_delay_s <= params.timeout_s)
            out.hits.push_back({nbr, hop, arrival,
                                reply_at + tr.extra_delay_s});
        }
        if (!params.forward_when_hit) forward = false;
      }
      if (forward) queue.push_back({nbr, cur.node, hop, arrival});
    }
  }
  return out;
}

/// Reliable-network flood (the historical entry point).
template <typename NeighborsFn, typename HasContentFn, typename DelayFn>
SearchOutcome flood_search(net::NodeId initiator, const SearchParams& params,
                           NeighborsFn&& neighbors, HasContentFn&& has_content,
                           DelayFn&& delay, VisitStamp& stamps,
                           SearchScratch& scratch) {
  ReliableTransmit reliable;
  return flood_search(initiator, params, std::forward<NeighborsFn>(neighbors),
                      std::forward<HasContentFn>(has_content),
                      std::forward<DelayFn>(delay), reliable, stamps, scratch);
}

}  // namespace dsf::core
