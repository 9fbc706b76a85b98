#pragma once

#include <array>
#include <cstdint>

#include "core/update.h"
#include "sim/policy.h"
#include "workload/catalog.h"
#include "workload/library.h"
#include "workload/session.h"

namespace dsf::gnutella {

/// Which benefit function drives neighbor selection (ablation hook; the
/// paper's case study uses kBandwidthOverResults).
enum class BenefitKind : std::uint8_t {
  kBandwidthOverResults,  ///< §4.1: B / R
  kUnit,                  ///< result counting only
  kInverseLatency,        ///< reply latency only
};

/// Query-propagation technique — the shared sim-layer policy enum; the
/// alias keeps historical call sites (`SearchStrategy::kFlood`) intact.
using SearchStrategy = sim::SearchStrategyKind;

/// Full parameterization of the §4 case study.  Defaults reproduce the
/// paper's settings (§4.2/§4.3); benches override `max_hops`,
/// `reconfig_threshold` and `dynamic` per figure.
struct Config {
  // --- population & content (§4.2) ---
  std::uint32_t num_users = 2000;
  workload::Catalog::Params catalog{};    // 200k songs, 50 categories, θ=0.9
  double user_zipf_theta = 0.9;           // user → category assignment
  workload::LibraryGenerator::Params library{};  // Gaussian(200, 50)
  workload::SessionModel::Params session{};      // 3h on / 3h off, 320s gap

  // --- overlay & search (§4.1/§4.3) ---
  std::uint32_t max_neighbors = 4;
  int max_hops = 2;              ///< propagation terminating condition
  double query_timeout_s = 10.0; ///< initiator's collection window
  SearchStrategy search_strategy = SearchStrategy::kFlood;
  /// kDirectedBft: how many of the initiator's neighbors receive the query
  /// (the most beneficial ones by the node's statistics).
  std::uint32_t directed_fanout = 2;
  /// kTopK: how many results the initiator wants per query (the ranked
  /// plane's k; the floor that prunes last-hop forwards is the k-th best
  /// score among replies arrived so far).
  std::uint32_t top_k = 1;

  // --- reconfiguration (§4.1) ---
  bool dynamic = true;                 ///< false = static Gnutella baseline
  std::uint32_t reconfig_threshold = 2;  ///< T, in issued requests (Fig 3b)
  /// §4.3: "only one neighbor is exchanged during each reconfiguration".
  /// Exchanging the full neighborhood at once over-clusters the overlay
  /// (neighbors' neighbors collapse onto the same community), which
  /// shrinks the reachable set and hurts the 50% of queries that fall in
  /// side categories — see bench_ablation_exchange.  UINT32_MAX restores
  /// full replacement.
  std::uint32_t max_exchanges_per_reconfig = 1;
  /// Degree an evicted node immediately restores (with random on-line
  /// peers) before falling back to §4.1's waiting rule for the remaining
  /// slots.  0 = pure waiting (the evicted node stays under-connected
  /// until an invitation arrives or its own reorganization threshold
  /// fires); max_neighbors = eager refill.  The eviction rate of the
  /// always-accept protocol is high (tens per node-hour), so pure waiting
  /// leaves a standing degree deficit that shrinks the reachable set at
  /// high hop limits; the default keeps nodes connected while still
  /// leaving one slot to the reorganization machinery.
  /// bench_ablation_update sweeps this.
  std::uint32_t eviction_refill_floor = 3;
  /// If false (default), Send Query floods whatever the preference
  /// distribution draws, exactly as Algo 5's pseudo-code (which has no
  /// initiator-side local check) — this reproduces the paper's regime
  /// where same-taste neighbors absorb many queries at the first hop.  If
  /// true, users only issue network queries for songs they do not already
  /// own; queries then concentrate on the popularity tail, where
  /// clustering buys less (ablation).
  bool exclude_owned_songs = false;
  /// If true, a satisfied query ends in a download: the song joins the
  /// user's library and the user can serve it from then on.  The paper
  /// keeps libraries fixed (its static baseline is flat over 4 days, which
  /// rules out network-wide replication growth), so this is an extension
  /// ablation (bench_ablation_workload).
  bool library_growth = false;
  core::InvitationPolicy invitation_policy =
      core::InvitationPolicy::kAlwaysAccept;
  /// kTrialPeriod: how long a provisionally accepted inviter has to prove
  /// itself before the invited node re-evaluates the relationship.
  double trial_period_s = 1800.0;
  /// §4.1: accepting an invitation resets the invited node's
  /// reconfiguration counter "to avoid updating the neighborhood in the
  /// near future (which could trigger cascading updates)".  Disabling this
  /// is the ablation that measures how much cascading the rule prevents.
  bool damp_cascades = true;
  BenefitKind benefit = BenefitKind::kBandwidthOverResults;
  /// The `B` fed into B/R per bandwidth class (modem, cable, LAN).  The
  /// paper does not give the scale of `B`; raw kbit/s (56/1500/10000) makes
  /// one LAN reply outweigh ~180 modem replies, turning neighbor selection
  /// into bandwidth-chasing instead of taste-matching (see
  /// bench_ablation_benefit).  The default expresses "prefer faster links"
  /// without drowning the repetition signal.
  std::array<double, 3> benefit_bandwidth_weights{1.0, 2.0, 3.0};
  /// Persist benefit statistics across a user's off-line periods (see
  /// DESIGN.md interpretation notes); ablation hook.
  bool persist_stats_across_sessions = true;

  // --- horizon & reporting (§4.3) ---
  double sim_hours = 96.0;     ///< 4 simulated days
  double warmup_hours = 12.0;  ///< steady state reached; report from here
  /// When > 0, the simulation samples overlay-structure statistics (mean
  /// degree, degree Gini, taste homophily, clustering coefficient) every
  /// `probe_period_s` simulated seconds into RunResult::probes.
  double probe_period_s = 0.0;

  std::uint64_t seed = 42;

  /// The static baseline is the same config with reconfiguration disabled.
  Config as_static() const {
    Config c = *this;
    c.dynamic = false;
    return c;
  }
};

}  // namespace dsf::gnutella
