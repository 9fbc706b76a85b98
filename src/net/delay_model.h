#pragma once

#include <vector>

#include "des/distributions.h"
#include "des/rng.h"
#include "net/bandwidth.h"
#include "net/node_id.h"

namespace dsf::net {

/// Tuning knobs of the delay distribution (declared at namespace scope so
/// they can appear in default arguments of DelayModel's constructors).
struct DelayModelParams {
  double stddev_s = 0.020;  ///< σ of the Gaussian spread (paper: 20 ms)
  double floor_s = 0.010;   ///< lower truncation bound
  /// Upper truncation bound as a multiple of the class mean; the exact
  /// interval is unreadable in the paper scan (see DESIGN.md).
  double ceil_mean_multiple = 2.0;
};

/// Pairwise one-way delay model of §4.2: the mean delay between two users
/// is governed by the slower endpoint (300/150/70 ms for modem/cable/LAN),
/// with a Gaussian spread of σ = 20 ms truncated to [10 ms, 2·mean].
///
/// The model owns the per-node class assignment so every component that
/// needs a delay or a bandwidth weight goes through one object.
class DelayModel {
 public:
  using Params = DelayModelParams;

  /// Assigns each of `n` nodes a class uniformly at random (paper: each
  /// user equally likely modem/cable/LAN).
  DelayModel(std::size_t n, des::Rng& rng, const Params& params = Params());

  /// Builds from an explicit class assignment (for tests/scenarios).
  DelayModel(std::vector<BandwidthClass> classes, const Params& params = Params());

  std::size_t size() const noexcept { return classes_.size(); }
  BandwidthClass node_class(NodeId id) const { return classes_.at(id); }

  /// Benefit weight `B` of an answer delivered by `id` (its link bandwidth
  /// in kbit/s).
  double bandwidth_weight(NodeId id) const {
    return bandwidth_kbps(node_class(id));
  }

  /// Samples the one-way delay (seconds) from `from` to `to`.  Symmetric in
  /// distribution: governed by the slower endpoint.  Both ids must be
  /// below size(): this is the flood's per-delivery draw, so the class
  /// reads are unchecked.
  double sample_delay_s(NodeId from, NodeId to, des::Rng& rng) const {
    return governing(from, to).sample(rng);
  }

  /// Advances `rng` exactly as sample_delay_s(from, to, rng) would, for a
  /// delivery whose arrival time nothing reads.
  void skip_delay(NodeId from, NodeId to, des::Rng& rng) const {
    governing(from, to).skip(rng);
  }

  /// Mean one-way delay (seconds) of the (from, to) pair.
  double mean_delay_s(NodeId from, NodeId to) const;

 private:
  const des::TruncatedGaussian& governing(NodeId from,
                                          NodeId to) const noexcept {
    return dists_[static_cast<int>(slower_of(classes_[from], classes_[to]))];
  }

  std::vector<BandwidthClass> classes_;
  // One truncated Gaussian per governing class, indexed by BandwidthClass.
  std::vector<des::TruncatedGaussian> dists_;
};

/// A DelayModel bound to the lane it draws from: the `delay` a search
/// calls once per timed transmission.  skip() is the flood's call for a
/// delivery whose arrival time nothing reads (core/flood_search.h).
struct DelayLane {
  const DelayModel* model;
  des::Rng* lane;

  double operator()(NodeId from, NodeId to) const {
    return model->sample_delay_s(from, to, *lane);
  }
  void skip(NodeId from, NodeId to) const {
    model->skip_delay(from, to, *lane);
  }
};

}  // namespace dsf::net
