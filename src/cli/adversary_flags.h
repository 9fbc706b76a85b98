#pragma once

// Shared `--adversary-*` option group for the dsf_sim driver (and any
// other tool that wants the same knobs): builds a sim::AdversaryPlan from
// command-line flags so every scenario can run under the same query-flood
// abusers.
//
//   --adversary-abusers F      fraction of peers turned query-flood
//                              abusers (TTL-max searches at a fixed rate)
//   --adversary-abuse-rate R   searches per second per abuser
//   --adversary-abuse-start S / --adversary-abuse-end S
//                              abuse window in sim-seconds
//   --adversary-check          audit abuse attribution + abuser overlay
//                              (nonzero exit on violation)

#include "cli/flag_registry.h"
#include "sim/adversary.h"

namespace dsf::cli {

struct AdversaryOptions {
  sim::AdversaryPlan plan;
  bool check = false;
};

/// Declares the whole --adversary-* group on `reg`.
void register_adversary_flags(FlagRegistry& reg);

/// Builds the options from a parsed registry; throws
/// std::invalid_argument on bad values (a fraction outside [0, 1], an
/// inverted window, ...) and on an abuse knob given without the one it
/// needs.
AdversaryOptions adversary_options_from(const FlagRegistry& reg);

}  // namespace dsf::cli
