#pragma once

#include <cstdint>
#include <vector>

#include "core/visit_stamp.h"
#include "net/node_id.h"

namespace dsf::core {

/// Parameters of the generic exploration algorithm (§3.3, Algo 2).
/// Exploration queries about collections of data — without fetching — and
/// propagates until a terminating condition, collecting statistics and
/// summarized information from every node reached.
struct ExploreParams {
  int max_hops = 2;
};

/// Summary returned by one node to an exploration query: an
/// application-defined score (e.g. the number of locally stored items
/// matching the probed collection, or a digest match count).
struct ExploreReport {
  net::NodeId node = net::kInvalidNode;
  int hop = 0;
  double summary = 0.0;
};

struct ExploreOutcome {
  std::vector<ExploreReport> reports;
  std::uint64_t explore_messages = 0;
  std::uint64_t reply_messages = 0;
};

/// Floods an exploration query from `initiator` (Algo 2).  Unlike search,
/// every reached node replies with its summary and keeps propagating — the
/// purpose is reconnaissance, not retrieval, so there is no stop-at-hit.
///
/// `neighbors(n)` -> const std::vector<net::NodeId>&
/// `summarize(n)` -> double : the node's summary for the probed collection
template <typename NeighborsFn, typename SummarizeFn>
ExploreOutcome explore(net::NodeId initiator, const ExploreParams& params,
                       NeighborsFn&& neighbors, SummarizeFn&& summarize,
                       VisitStamp& stamps) {
  ExploreOutcome out;
  stamps.begin_search();
  stamps.mark(initiator);

  struct Frontier {
    net::NodeId node;
    net::NodeId sender;
    int hop;
  };
  std::vector<Frontier> queue;
  queue.push_back({initiator, net::kInvalidNode, 0});

  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto cur = queue[head];
    for (net::NodeId nbr : neighbors(cur.node)) {
      if (nbr == cur.sender) continue;
      ++out.explore_messages;
      if (!stamps.mark(nbr)) continue;
      const int hop = cur.hop + 1;
      ++out.reply_messages;
      out.reports.push_back({nbr, hop, summarize(nbr)});
      if (hop < params.max_hops) queue.push_back({nbr, cur.node, hop});
    }
  }
  return out;
}

}  // namespace dsf::core
