// Adversary-layer battery, in two movements:
//
//   1. Zero-perturbation goldens: attaching the adversary layer with a
//      DISABLED plan must leave every scenario's metric fingerprint
//      byte-identical to the plain baseline — the adversary lane draws
//      nothing and schedules nothing, the same contract the fault layer
//      pins in fault_golden_test.cpp.  This is what makes the layer safe
//      to wire permanently into all four simulators.
//
//   2. Behavioral pin: armed abusers spray attributed traffic, and the
//      armed run stays clean under the full invariant battery including
//      the abuse-accounting and abuser-overlay audits.
//
// The golden configurations are shared with determinism_test.cpp via
// sim_fingerprints.h; runs here keep the suite in the PR fast tier
// (label: adversary).

#include "sim/adversary.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/invariants.h"
#include "sim_fingerprints.h"

namespace dsf {
namespace {

using simtest::fingerprint;

/// Runs `Sim(config)` twice — plain, and with a disabled plan attached
/// plus the checker — and requires identical fingerprints, a clean
/// checker, and an entirely idle adversary layer.
template <typename Sim, typename Config>
void expect_noop_adversary_layer(const Config& config) {
  const auto baseline = fingerprint(Sim(config).run());

  sim::InvariantChecker checker;
  Sim sim(config);
  sim.set_adversary(sim::AdversaryPlan{});
  sim.attach_checker(&checker);
  const auto armed = fingerprint(sim.run());

  EXPECT_EQ(baseline.value(), armed.value())
      << "disabled adversary plan perturbed the run";

  const sim::AdversaryStats& s = sim.adversary_stats();
  EXPECT_EQ(s.abusers, 0u);
  EXPECT_EQ(s.abuse_queries, 0u);
  EXPECT_TRUE(sim.abusers().empty());
  EXPECT_EQ(sim.abuse_ledger().stats().total(), 0u);

  checker.check_overlay(sim.overlay());
  checker.check_ledger(sim.ledger());
  checker.check_abuse(s, sim.abuse_ledger(), sim.ledger());
  checker.check_abuser_overlay(sim.overlay(), sim.abusers());
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(checker.events_seen(), 0u)
      << "checker attached but no traffic was traced";
}

TEST(AdversaryGolden, GnutellaDisabledPlanIsNoop) {
  expect_noop_adversary_layer<gnutella::Simulation>(
      simtest::golden_gnutella_config());
}

TEST(AdversaryGolden, DigLibDisabledPlanIsNoop) {
  expect_noop_adversary_layer<diglib::DigLibSim>(
      simtest::golden_diglib_config());
}

TEST(AdversaryGolden, OlapDisabledPlanIsNoop) {
  expect_noop_adversary_layer<olap::OlapSim>(simtest::golden_olap_config());
}

TEST(AdversaryGolden, WebCacheDisabledPlanIsNoop) {
  expect_noop_adversary_layer<webcache::WebCacheSim>(
      simtest::golden_webcache_config());
}

// --- behavioral pin (armed abusers must bite, and stay clean) ------------

/// A shortened golden gnutella configuration: an armed spray multiplies
/// the event count, so the behavioral pin trades horizon for wall-clock
/// while keeping the golden population and catalog.
gnutella::Config adversarial_gnutella_config() {
  auto c = simtest::golden_gnutella_config();
  c.sim_hours = 1.0;
  c.warmup_hours = 0.25;
  return c;
}

/// Full certification battery for an armed gnutella run.
void expect_certified(gnutella::Simulation& sim,
                      sim::InvariantChecker& checker) {
  checker.check_overlay(sim.overlay());
  checker.check_ledger(sim.ledger());
  checker.check_abuse(sim.adversary_stats(), sim.abuse_ledger(), sim.ledger());
  checker.check_abuser_overlay(sim.overlay(), sim.abusers());
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(AdversaryBehavior, AbusersSprayAttributedTraffic) {
  const auto config = adversarial_gnutella_config();
  const auto baseline = fingerprint(gnutella::Simulation(config).run());

  sim::AdversaryPlan plan;
  plan.abuser_fraction = 0.1;
  plan.abuse_rate_per_s = 0.02;  // 25 abusers * 0.02 q/s over the horizon

  sim::InvariantChecker checker;
  gnutella::Simulation sim(config);
  sim.set_adversary(plan);
  sim.attach_checker(&checker);
  const auto armed = fingerprint(sim.run());

  const sim::AdversaryStats& s = sim.adversary_stats();
  EXPECT_EQ(s.abusers, 25u);  // llround(0.1 * 250)
  EXPECT_EQ(sim.abusers().size(), 25u);
  EXPECT_GT(s.abuse_queries, 0u);
  EXPECT_LE(s.abuse_hits, s.abuse_queries);
  // The blast radius is real traffic, attributed: a non-empty strict
  // subset of the run ledger.
  EXPECT_GT(sim.abuse_ledger().stats().total(), 0u);
  EXPECT_LT(sim.abuse_ledger().stats().total(), sim.ledger().stats().total());
  EXPECT_NE(baseline.value(), armed.value())
      << "an armed abuse spray must perturb the trajectory";
  expect_certified(sim, checker);
}

// --- plan validation ------------------------------------------------------

TEST(AdversaryPlan, ValidateRejectsBadKnobs) {
  sim::AdversaryPlan p;
  p.abuser_fraction = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = sim::AdversaryPlan{};
  p.abuse_rate_per_s = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = sim::AdversaryPlan{};
  p.abuser_fraction = 0.1;
  p.abuse_rate_per_s = 1.0;
  p.abuse_end_s = -5.0;  // inverted window
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = sim::AdversaryPlan{};
  p.abuser_fraction = 1.0;  // no good peer left
  p.abuse_rate_per_s = 1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  EXPECT_NO_THROW(sim::AdversaryPlan{}.validate());
}

}  // namespace
}  // namespace dsf
