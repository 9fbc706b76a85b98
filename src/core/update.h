#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/stats_store.h"
#include "net/node_id.h"

namespace dsf::core {

/// The outcome of computing a new outgoing neighborhood (Algo 3 / the
/// planning half of Algo 4): the desired list, who must be invited/added
/// and who must be evicted relative to the current list.
struct UpdatePlan {
  std::vector<net::NodeId> new_out;    ///< desired outgoing list, best first
  std::vector<net::NodeId> additions;  ///< in new_out but not current
  std::vector<net::NodeId> evictions;  ///< in current but not new_out
};

namespace detail {

/// One planner candidate.  The planner ranks by a strict total order:
/// benefit (highest first), then current neighbors first (damps churn),
/// then node id.
struct Ranked {
  double benefit;
  bool is_current;
  net::NodeId node;
};

inline bool contains(std::span<const net::NodeId> v, net::NodeId n) noexcept {
  return std::find(v.begin(), v.end(), n) != v.end();
}

/// The calling thread's ranking buffer, reused across plans (cleared, never
/// shrunk).
std::vector<Ranked>& rank_buffer();

/// Orders the top `capacity` candidates of `ranked` and derives the plan
/// against `current_out`.
UpdatePlan finish_plan(std::vector<Ranked>& ranked,
                       std::span<const net::NodeId> current_out,
                       std::size_t capacity);

}  // namespace detail

/// Computes the most-beneficial neighborhood of size <= `capacity` from the
/// statistics (Algo 3; also the planning step of Algo 5's Reconfigure).
/// `eligible(peer)` decides whether a peer may become a neighbor right now
/// (typically: is on-line and is not this node).
///
/// Candidates are the union of the statistics' peers and the current
/// neighbors, ranked by cumulative benefit.  Current neighbors win ties so
/// that reconfiguration never churns between equally-good peers; this also
/// means a node with sparse statistics keeps its current neighborhood
/// rather than shrinking it.  The ranking is a total order, so only the top
/// `capacity` candidates are sorted.
/// Neighbor lists arrive as spans so both the reference and the compact
/// overlay tables (and plain vectors in tests) can feed the planner.
template <typename Eligible>
UpdatePlan plan_update(const StatsStore& stats,
                       std::span<const net::NodeId> current_out,
                       std::size_t capacity, Eligible&& eligible) {
  // Candidate set: known peers plus current neighbors (the latter may have
  // no statistics yet, e.g. fresh random links).
  std::vector<detail::Ranked>& ranked = detail::rank_buffer();
  ranked.clear();
  for (const StatsEntry& e : stats.entries()) {
    if (!eligible(e.peer)) continue;
    ranked.push_back(
        {e.benefit, detail::contains(current_out, e.peer), e.peer});
  }
  for (net::NodeId n : current_out) {
    if (!stats.knows(n) && eligible(n)) ranked.push_back({0.0, true, n});
  }
  return detail::finish_plan(ranked, current_out, capacity);
}

/// How an invited node reacts to a neighboring invitation (§3.4's two
/// symmetric-update variants).
enum class InvitationPolicy : std::uint8_t {
  /// Variant (i): always accept, evicting the least beneficial incoming
  /// neighbor if the list is full.  This is what the Gnutella case study
  /// uses (§4.1: "the invited node always accepts an invitation").
  kAlwaysAccept,
  /// Variant (ii): accept only if the inviter's (estimated) benefit exceeds
  /// that of at least one current incoming neighbor.
  kBenefitGated,
  /// Variant (ii-b), §3.4 solution (b): the invitation carries summarized
  /// information (a content digest) from which the invited node estimates
  /// the inviter's potential benefit — useful when it has no statistics
  /// about the inviter yet.  Scenarios with digest support implement the
  /// estimate themselves; core's decide_invitation falls back to
  /// kBenefitGated semantics.
  kSummaryGated,
  /// Variant (ii-a), §3.4 solution (a): a *temporary relationship* — the
  /// invited node always accepts provisionally, exchanges search traffic
  /// to gather statistics, and after a time threshold either keeps the
  /// inviter (it now beats the worst other neighbor) or terminates the
  /// relationship.  The trial scheduling lives in the scenario; core's
  /// decide_invitation accepts like kAlwaysAccept.
  kTrialPeriod,
};

struct InvitationDecision {
  bool accept = false;
  /// Neighbor to evict to make room; kInvalidNode when a free slot exists.
  net::NodeId evict = net::kInvalidNode;
};

/// Decides an invitation from `inviter` given the invited node's incoming
/// list and statistics (Algo 4, "On Neighboring Invitation Arrival").
InvitationDecision decide_invitation(const StatsStore& stats,
                                     net::NodeId inviter,
                                     std::span<const net::NodeId> in_list,
                                     std::size_t capacity,
                                     InvitationPolicy policy);

/// Returns the least beneficial node of `list` according to `stats`
/// (kInvalidNode for an empty list).  Ties broken toward the higher id so
/// older/lower ids — about which more is typically known — survive.
net::NodeId least_beneficial(const StatsStore& stats,
                             std::span<const net::NodeId> list);

}  // namespace dsf::core
