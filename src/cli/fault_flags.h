#pragma once

// Shared `--fault-*` option group for the dsf_sim driver (and any other
// tool that wants the same knobs): builds a sim::FaultPlan / CrashModel
// from command-line flags so every scenario can run under identical
// adversarial conditions.
//
//   --fault-drop P           drop probability for every message type
//   --fault-dup P            duplication probability for every type
//   --fault-delay P          extra-delay probability for every type
//   --fault-delay-s S        the extra delay itself (default 1.0 s)
//   --fault-window-start S   faults active from this sim time (default 0)
//   --fault-window-end S     ... until this sim time (default: forever)
//   --fault-drop-<type>, --fault-dup-<type>, --fault-delay-<type>
//                            per-type overrides; <type> is the wire name
//                            from net::to_string (query, query-reply,
//                            ping, pong, explore-query, explore-reply,
//                            invitation, invitation-reply, eviction)
//   --fault-crash-rate R     Poisson peer crashes per hour
//   --fault-crash-max N      stop after N crashes (-1: unlimited)
//   --fault-crash-start S / --fault-crash-end S
//                            crash window in sim seconds
//   --fault-check            attach the InvariantChecker and audit the
//                            run (nonzero exit on violation)

#include "cli/flag_registry.h"
#include "sim/fault.h"

namespace dsf::cli {

struct FaultOptions {
  sim::FaultPlan plan;
  sim::CrashModel crashes;
  bool check = false;

  /// Anything at all requested (plan, crashes, or checker)?
  bool any() const noexcept {
    return !plan.empty() || crashes.enabled() || check;
  }
};

/// Declares the whole --fault-* group on `reg` (opens a "fault injection"
/// group; the 27 per-type overrides are hidden behind one note line).
void register_fault_flags(FlagRegistry& reg);

/// Builds the options from a parsed registry; a bad value (a probability
/// outside [0, 1], a drop + dup + delay sum above 1, a negative delay or
/// crash rate, an inverted window, --fault-crash-max below -1) throws a
/// FlagError naming the flag and the value.  Once every value is in
/// range, a modifier of a fault that is off (--fault-delay-s without a
/// delay probability, --fault-window-* without any probability,
/// --fault-crash-max/start/end without --fault-crash-rate) throws a
/// FlagError naming what it needs.
FaultOptions fault_options_from(const FlagRegistry& reg);

}  // namespace dsf::cli
