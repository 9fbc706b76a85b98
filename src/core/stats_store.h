#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "net/node_id.h"

namespace dsf::core {

/// One peer's cumulative benefit in a StatsStore.
struct StatsEntry {
  net::NodeId peer;
  double benefit;
};

/// Per-repository statistics about other nodes encountered through search
/// and exploration (§3.4): cumulative benefit keyed by peer.  This is the
/// state the neighbor-update algorithms sort to pick the new neighborhood.
///
/// The entries live in one flat vector, found by linear scan and removed by
/// swap-pop.  Stores are small (the peers met recently: 14–28 entries on
/// average and at most 96 when plan_update runs on the perfbench workloads
/// at seed 42), so a scan over contiguous 16-byte entries beats hashing,
/// and the store costs one allocation instead of a node per peer.  Iteration
/// order is therefore insertion order perturbed by removals; every consumer
/// that depends on order (plan_update, the snapshot writer) sorts by a
/// total order with an id tie-break.
class StatsStore {
 public:
  /// Adds `delta` to the cumulative benefit of `peer`.
  void add(net::NodeId peer, double delta) {
    const std::size_t i = index_of(peer);
    if (i < entries_.size()) {
      entries_[i].benefit += delta;
    } else {
      // 0.0 + delta, not delta: a first -0.0 becomes +0.0 exactly as a
      // value-initialized map entry did, so snapshot bytes do not change.
      entries_.push_back({peer, 0.0 + delta});
    }
  }

  /// Cumulative benefit (0 for unknown peers).
  double benefit_of(net::NodeId peer) const {
    const std::size_t i = index_of(peer);
    return i < entries_.size() ? entries_[i].benefit : 0.0;
  }

  bool knows(net::NodeId peer) const {
    return index_of(peer) < entries_.size();
  }

  /// Forgets a peer entirely (§4.1: an evicted node resets the evictor's
  /// statistics so it does not attempt to reconnect in the near future).
  void reset(net::NodeId peer) {
    const std::size_t i = index_of(peer);
    if (i == entries_.size()) return;
    entries_[i] = entries_.back();
    entries_.pop_back();
  }

  void clear() { entries_.clear(); }

  /// Multiplies every entry by `factor` (aging; optional extension).
  void decay(double factor) {
    for (StatsEntry& e : entries_) e.benefit *= factor;
  }

  std::size_t size() const noexcept { return entries_.size(); }

  /// Iteration support (planner, serialization, tests), in no particular
  /// order.
  std::span<const StatsEntry> entries() const noexcept { return entries_; }

 private:
  /// Position of `peer`'s entry, or size() when it has none.
  std::size_t index_of(net::NodeId peer) const {
    std::size_t i = 0;
    while (i < entries_.size() && entries_[i].peer != peer) ++i;
    return i;
  }

  std::vector<StatsEntry> entries_;
};

}  // namespace dsf::core
