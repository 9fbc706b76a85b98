// Adversary-layer battery, in three movements:
//
//   1. Zero-perturbation goldens: attaching the adversary layer with a
//      DISABLED plan must leave every scenario's metric fingerprint
//      byte-identical to the plain baseline — the adversary lane draws
//      nothing and schedules nothing, the same contract the fault layer
//      pins in fault_golden_test.cpp.  This is what makes the layer safe
//      to wire permanently into all four simulators.
//
//   2. Behavioral pins: each armed adversity actually bites — abusers
//      spray attributed traffic, free-riders depress the hit ratio, the
//      regional outage crashes its class, churn storms deliver kicks,
//      capacity bounds cap degrees — and every armed run stays clean
//      under the full invariant battery including the abuse-accounting
//      and abuser-overlay audits.
//
//   3. Capture round-trip: --capture-trace writes the run's closed-loop
//      arrivals in the open-loop trace grammar, and replaying the file
//      with the trace-driven injector reproduces the captured run's
//      offered/admitted counts exactly.
//
// The golden configurations are shared with determinism_test.cpp via
// sim_fingerprints.h; runs here keep the suite in the PR fast tier
// (label: adversary).

#include "sim/adversary.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "load/open_loop.h"
#include "load/trace_reader.h"
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
  EXPECT_EQ(s.free_riders, 0u);
  EXPECT_EQ(s.abuse_queries, 0u);
  EXPECT_EQ(s.outage_victims, 0u);
  EXPECT_EQ(s.storm_kicks, 0u);
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

// --- behavioral pins (armed adversities must bite, and stay clean) -------

/// A shortened golden gnutella configuration: armed adversities multiply
/// the event count, so the behavioral pins trade horizon for wall-clock
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

TEST(AdversaryBehavior, FreeRidersDepressTheHitRatio) {
  const auto config = adversarial_gnutella_config();
  const auto base = gnutella::Simulation(config).run();
  const double base_ratio =
      static_cast<double>(base.total_hits()) /
      static_cast<double>(base.queries_issued);

  sim::AdversaryPlan plan;
  plan.free_rider_fraction = 0.5;

  sim::InvariantChecker checker;
  gnutella::Simulation sim(config);
  sim.set_adversary(plan);
  sim.attach_checker(&checker);
  const auto r = sim.run();
  const double ratio = static_cast<double>(r.total_hits()) /
                       static_cast<double>(r.queries_issued);

  EXPECT_GT(sim.adversary_stats().free_riders, 0u);
  EXPECT_LT(ratio, base_ratio)
      << "half the population serving nothing must depress the hit ratio";
  expect_certified(sim, checker);
}

TEST(AdversaryBehavior, RegionalOutageCrashesTheClass) {
  const auto config = adversarial_gnutella_config();

  sim::AdversaryPlan plan;
  plan.outage_class = 0;  // 56K, the most populous class
  plan.outage_at_s = 1800.0;

  sim::InvariantChecker checker;
  gnutella::Simulation sim(config);
  sim.set_adversary(plan);
  sim.attach_checker(&checker);
  sim.run();

  const sim::AdversaryStats& s = sim.adversary_stats();
  EXPECT_GT(s.outage_victims, 0u);
  // Every victim crashed through the traced crash path, like CrashModel
  // victims: the checker saw each one and tracks the dangling entries.
  EXPECT_EQ(checker.crashes_seen(), s.outage_victims);
  expect_certified(sim, checker);
}

TEST(AdversaryBehavior, ChurnStormDeliversParetoKicks) {
  const auto config = adversarial_gnutella_config();
  const auto baseline = fingerprint(gnutella::Simulation(config).run());

  sim::AdversaryPlan plan;
  plan.storm_rate_per_s = 0.05;  // ~180 kicks over the hour
  plan.storm_pareto_shape = 1.5;
  plan.storm_offline_mean_s = 600.0;

  sim::InvariantChecker checker;
  gnutella::Simulation sim(config);
  sim.set_adversary(plan);
  sim.attach_checker(&checker);
  const auto armed = fingerprint(sim.run());

  EXPECT_GT(sim.adversary_stats().storm_kicks, 0u);
  EXPECT_NE(baseline.value(), armed.value())
      << "forced log-offs must perturb the trajectory";
  expect_certified(sim, checker);
}

TEST(AdversaryBehavior, CapacityBoundsCapEveryDegree) {
  auto config = adversarial_gnutella_config();
  config.dynamic = true;

  sim::AdversaryPlan plan;
  plan.degree_bound = {2, 2, 2};  // well under the configured degree

  sim::InvariantChecker checker;
  gnutella::Simulation sim(config);
  sim.set_adversary(plan);
  sim.attach_checker(&checker);
  sim.run();

  for (net::NodeId u = 0; u < sim.overlay().size(); ++u)
    ASSERT_LE(sim.overlay().lists(u).out().size(), 2u)
        << "peer " << u << " exceeded its capacity bound";
  expect_certified(sim, checker);
}

TEST(AdversaryBehavior, BenefitWeightsSteerReconfiguration) {
  auto config = adversarial_gnutella_config();
  config.dynamic = true;
  const auto baseline = fingerprint(gnutella::Simulation(config).run());

  sim::AdversaryPlan plan;
  plan.benefit_weight = {0.25, 1.0, 4.0};  // value LAN answers, discount 56K

  gnutella::Simulation sim(config);
  sim.set_adversary(plan);
  const auto weighted = fingerprint(sim.run());

  EXPECT_NE(baseline.value(), weighted.value())
      << "per-class benefit weights must steer the dynamic scheme";
}

// --- plan validation ------------------------------------------------------

TEST(AdversaryPlan, ValidateRejectsBadKnobs) {
  sim::AdversaryPlan p;
  p.abuser_fraction = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = sim::AdversaryPlan{};
  p.free_rider_fraction = -0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = sim::AdversaryPlan{};
  p.outage_class = 3;  // only three classes exist
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = sim::AdversaryPlan{};
  p.storm_rate_per_s = 0.1;
  p.storm_pareto_shape = 1.0;  // infinite mean
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = sim::AdversaryPlan{};
  p.abuser_fraction = 0.1;
  p.abuse_rate_per_s = 1.0;
  p.abuse_end_s = -5.0;  // inverted window
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = sim::AdversaryPlan{};
  p.benefit_weight[1] = -2.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  EXPECT_NO_THROW(sim::AdversaryPlan{}.validate());
}

// --- capture round-trip ---------------------------------------------------

TEST(CaptureTrace, RoundTripReproducesOfferedAndAdmitted) {
  // Small and quick: the round trip is about exactness, not scale.
  auto config = simtest::golden_gnutella_config();
  config.num_users = 100;
  config.sim_hours = 0.5;
  config.warmup_hours = 0.1;

  // Unique path per process: parallel ctest runs must not share it.
  const std::string path = testing::TempDir() + "dsf_capture_roundtrip_" +
                           std::to_string(::getpid()) + ".trace";

  gnutella::Simulation captured(config);
  // An empty path is rejected before anything is armed.
  EXPECT_THROW(captured.set_capture_trace(""), std::invalid_argument);
  captured.set_capture_trace(path);
  captured.run();
  const std::uint64_t arrivals = captured.captured_arrivals();
  ASSERT_GT(arrivals, 0u);

  // The file parses under the open-loop trace grammar and holds exactly
  // the captured arrivals.
  const auto trace = load::read_trace(path);
  ASSERT_EQ(trace.size(), arrivals);
  for (const auto& a : trace) {
    ASSERT_GE(a.time_s, 0.0);
    ASSERT_GE(a.peer, 0);
    ASSERT_LT(a.peer, static_cast<std::int64_t>(config.num_users));
  }

  // Replay through the trace-driven injector: the same session
  // trajectory is live (same seed, closed-loop workload untouched by
  // injection), so every captured arrival lands on an on-line peer and
  // offered == admitted == captured, with zero rejections.
  gnutella::Simulation replay(config);
  load::OpenLoopOptions o;
  o.enabled = true;
  o.trace = trace;
  o.admission_cap = 1u << 20;  // never the limiting factor
  replay.set_open_loop(std::move(o));
  replay.run();

  const load::LoadStats& s = replay.load_stats();
  EXPECT_EQ(s.offered, arrivals);
  EXPECT_EQ(s.admitted, arrivals);
  EXPECT_EQ(s.rejected, 0u);

  std::remove(path.c_str());
}

}  // namespace
}  // namespace dsf
