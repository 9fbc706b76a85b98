#pragma once

// Query-flood abusers for the overlay engine, layered on top of the
// memoryless fault layer (src/sim/fault.h).
//
// An AdversaryPlan designates a fraction of peers as abusers that spray
// TTL-max searches at a configurable rate inside a window: the OPNET
// flooding regime where flood-family schemes collapse.  Every sprayed
// search, its flood and its replies are attributed to the abuse ledger,
// which InvariantChecker::check_abuse certifies against the trace stream.
//
// Determinism contract: identical to FaultPlan's.  Every adversary decision
// draws from a dedicated RNG lane derived via des::hash_seed from the
// scenario seed — never from the master stream or any lane split off it —
// and a disabled plan performs *zero* draws and schedules *zero* events, so
// a baseline run with the layer merely attached replays byte-identically;
// tests/sim/adversary_golden_test.cpp pins this for all four simulators.

#include <cstdint>
#include <limits>

#include "des/rng.h"

namespace dsf::sim {

/// What the adversary layer is asked to do.  All knobs default to "off";
/// validate() rejects inconsistent settings before any state is touched.
struct AdversaryPlan {
  /// Fraction of peers designated as abusers (rounded to the nearest whole
  /// peer, at least one when the fraction is positive).
  double abuser_fraction = 0.0;
  /// Per-abuser spray rate (TTL-max searches per second).  The layer runs
  /// one aggregate Poisson process at `abusers * rate` and picks a uniform
  /// abuser per event, which is statistically identical to independent
  /// per-abuser processes.
  double abuse_rate_per_s = 0.0;
  /// Abuse window [start, end); infinite end means "until the horizon".
  double abuse_start_s = 0.0;
  double abuse_end_s = std::numeric_limits<double>::infinity();

  /// True when abusers spray.  The engine checks this before arming so a
  /// default plan costs one branch and zero draws.
  bool abusers_enabled() const noexcept {
    return abuser_fraction > 0.0 && abuse_rate_per_s > 0.0;
  }

  /// Throws std::invalid_argument when any knob is out of range (a
  /// fraction outside [0, 1] or leaving no good peer, a negative or
  /// non-finite rate, an inverted window).
  void validate() const;
};

/// What the adversary layer did during one run.
struct AdversaryStats {
  std::uint64_t abusers = 0;        ///< peers designated as abusers
  std::uint64_t abuse_queries = 0;  ///< sprayed TTL-max searches served
  std::uint64_t abuse_hits = 0;     ///< sprayed searches that found a result
};

/// Builds the adversary RNG lane for a scenario seed.  Derived with
/// des::hash_seed under a fixed salt so it is independent of the master
/// stream, every lane split off it, and the fault and load lanes.
des::Rng make_adversary_lane(std::uint64_t seed);

}  // namespace dsf::sim
