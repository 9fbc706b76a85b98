#pragma once

// Message-level reference implementation of the query flood: every
// transmission is a discrete event on a Simulator.  This exists to
// validate the eager expansion of flood_search() (DESIGN.md §1.4): with a
// deterministic delay function the two produce identical message counts,
// hit sets and reply times.  The eager version is what the experiment
// harness uses (it is ~50× faster); this one is the ground truth the
// equivalence tests compare against, and a template for users who need
// queries that interact mid-flight.
//
// One node's expansion counts and stamps every neighbor first, then
// schedules their deliveries in neighbor order.  The flood runs on its own
// simulator whose handler is the flood's: each scheduled hop is an event
// record whose payload indexes a per-flood vector of hop coordinates.

#include <vector>

#include "core/flood_search.h"
#include "des/simulator.h"

namespace dsf::core {

/// Runs one query flood by scheduling each hop as a simulator event,
/// starting at absolute time `start_s` on a simulator private to the
/// flood.  Semantics mirror flood_search: forward to every neighbor except
/// the sender, duplicates counted-then-discarded, holders reply directly
/// to the initiator and do not forward unless `forward_when_hit`.  Reported
/// times are relative to the start, as in flood_search.
template <typename NeighborsFn, typename HasContentFn, typename DelayFn>
SearchOutcome event_flood_search(net::NodeId initiator,
                                 const SearchParams& params,
                                 NeighborsFn&& neighbors,
                                 HasContentFn&& has_content, DelayFn&& delay,
                                 VisitStamp& stamps,
                                 des::SimTime start_s = 0.0) {
  struct Ctx {
    const SearchParams& params;
    NeighborsFn& neighbors;
    HasContentFn& has_content;
    DelayFn& delay;
    VisitStamp& stamps;
    net::NodeId initiator;
    double start;
    SearchOutcome out;

    /// One scheduled delivery: `node` receives the query from `sender` at
    /// `arrival` seconds after the start.  An event's `a` is its index.
    struct Hop {
      net::NodeId node;
      net::NodeId sender;
      int hop;
      double arrival;
    };
    std::vector<Hop> hops;

    void send_from(des::Simulator& sim, net::NodeId node, net::NodeId sender,
                   int hop, double now_rel) {
      if (hop >= params.max_hops) return;
      const std::size_t first = hops.size();
      for (net::NodeId nbr : neighbors(node)) {
        if (nbr == sender) continue;
        ++out.query_messages;
        if (!stamps.mark(nbr)) continue;  // counted, but receiver will drop
        ++out.nodes_reached;
        hops.push_back({nbr, node, hop + 1, now_rel + delay(node, nbr)});
      }
      for (std::size_t i = first; i < hops.size(); ++i)
        sim.schedule_at(start + hops[i].arrival, des::Event{0, i, 0});
    }

    void arrive(des::Simulator& sim, const Hop& h) {
      bool forward = true;
      if (has_content(h.node)) {
        const double reply_at = h.arrival + delay(h.node, initiator);
        if (reply_at <= params.timeout_s) {
          ++out.reply_messages;
          out.hits.push_back({h.node, h.hop, h.arrival, reply_at});
        }
        if (!params.forward_when_hit) forward = false;
      }
      if (forward) send_from(sim, h.node, h.sender, h.hop, h.arrival);
    }
  };

  Ctx ctx{params, neighbors, has_content, delay, stamps,
          initiator, start_s, {}, {}};
  // send_from may grow `hops`, so the handler copies the record first.
  des::Simulator sim([&ctx, &sim](const des::Event& e) {
    const typename Ctx::Hop h = ctx.hops[e.a];
    ctx.arrive(sim, h);
  });
  sim.run_until(start_s);  // an empty queue: only moves the clock
  ctx.stamps.begin_search();
  ctx.stamps.mark(initiator);
  ctx.send_from(sim, initiator, net::kInvalidNode, 0, 0.0);
  sim.run();
  return ctx.out;
}

}  // namespace dsf::core
