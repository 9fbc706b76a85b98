#pragma once

// Deterministic fault injection for the overlay engine.
//
// A FaultPlan tells the engine's unified transmission path to drop,
// duplicate, or extra-delay messages, per message type, with configurable
// probabilities inside an optional time window.  A CrashModel kills peers
// abruptly: no departure clean-up runs, so the victims' neighbor entries
// dangle exactly as they would after a real ungraceful disconnect.
//
// Determinism contract: every fault decision draws from a dedicated RNG
// lane derived via des::hash_seed from the scenario seed — never from the
// master stream or any existing lane — and an empty plan (or disabled
// crash model) performs *zero* draws and schedules *zero* events.  A
// baseline run with the fault layer merely attached therefore replays
// byte-identically; tests/sim/fault_golden_test.cpp pins this.

#include <array>
#include <cstdint>
#include <limits>

#include "des/rng.h"
#include "net/message.h"

namespace dsf::sim {

/// What the fault layer decided for one transmission.  Defaults describe a
/// clean network: deliver one copy, on time.
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  double extra_delay_s = 0.0;
};

/// Per-message-type fault rule.  The three probabilities partition a single
/// uniform draw (drop wins over duplicate wins over delay), so they must
/// sum to at most 1.  Faults apply only while
/// `window_start_s <= now < window_end_s`; outside the window the rule is
/// inert and consumes no randomness.
struct FaultRule {
  double drop_prob = 0.0;
  double duplicate_prob = 0.0;
  double delay_prob = 0.0;
  /// Added to the propagation delay when the delay branch fires.
  double extra_delay_s = 1.0;
  double window_start_s = 0.0;
  double window_end_s = std::numeric_limits<double>::infinity();

  /// A rule that can never fire (all probabilities zero).
  bool trivial() const noexcept {
    return drop_prob <= 0.0 && duplicate_prob <= 0.0 && delay_prob <= 0.0;
  }
};

/// The per-type fault schedule consulted by OverlayEngine's transmission
/// paths.  Empty by default; set_rule validates aggressively because a
/// mis-specified probability would silently skew every curve downstream.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Installs `rule` for message type `t`.  Throws std::invalid_argument
  /// if any probability is outside [0, 1], the probabilities sum past 1,
  /// the extra delay is negative, or the window is inverted.
  void set_rule(net::MessageType t, const FaultRule& rule);

  /// Installs `rule` for every message type.
  void set_rule_all(const FaultRule& rule);

  const FaultRule& rule(net::MessageType t) const noexcept {
    return rules_[static_cast<std::size_t>(t)];
  }

  /// True if `t` has a non-trivial rule installed.
  bool targets(net::MessageType t) const noexcept {
    return (active_mask_ & (1u << static_cast<unsigned>(t))) != 0;
  }

  /// True if no rule can ever fire.  The engine checks this before every
  /// decision so an empty plan costs one branch and zero draws.
  bool empty() const noexcept { return active_mask_ == 0; }

  /// Decides the fate of one transmission of type `t` at simulation time
  /// `now_s`.  Consumes exactly one draw from `lane` when `t` is targeted
  /// and `now_s` is inside the rule's window, and zero draws otherwise.
  FaultDecision decide(net::MessageType t, double now_s, des::Rng& lane) const;

 private:
  std::array<FaultRule, net::kNumMessageTypes> rules_{};
  std::uint32_t active_mask_ = 0;
};

/// Abrupt peer failures: crashes arrive as a Poisson process at
/// `rate_per_hour` across the whole population, inside [start_s, end_s),
/// up to `max_crashes` victims.  A crashed peer stops cold — its pending
/// activity never runs, but nobody updates neighbor tables on its
/// behalf, so ex-neighbors keep dangling entries until they discover the
/// failure themselves (their sends to it are dropped on arrival).
struct CrashModel {
  double rate_per_hour = 0.0;
  double start_s = 0.0;
  double end_s = std::numeric_limits<double>::infinity();
  std::size_t max_crashes = std::numeric_limits<std::size_t>::max();

  bool enabled() const noexcept {
    return rate_per_hour > 0.0 && max_crashes > 0;
  }
};

/// Builds the fault-decision RNG lane for a scenario seed.  Derived with
/// des::hash_seed under a fixed salt so it is independent of the master
/// stream and of every lane split off it — attaching the fault layer never
/// perturbs the baseline RNG trajectory.
des::Rng make_fault_lane(std::uint64_t seed);

}  // namespace dsf::sim
