// Zero-perturbation regression: attaching the fault layer with an EMPTY
// plan (no rules, no crashes) plus the invariant checker must leave every
// scenario's metrics byte-identical to the plain baseline run.  This is
// the contract that makes the fault layer safe to wire permanently into
// the simulators: the fault RNG lane is separate from the workload lanes
// and consumes zero draws when nothing is armed, and the traced transmit
// path adds zero delay and drops nothing.
//
// The runs are full golden configurations (same as determinism_test.cpp),
// so this file lives in the slow suite.
#include <gtest/gtest.h>

#include "sim/invariants.h"
#include "sim_fingerprints.h"

namespace dsf {
namespace {

using simtest::fingerprint;

/// Runs `Sim(config)` twice — plain, and with empty plan + disabled
/// crashes + checker attached — and requires identical fingerprints and
/// a clean checker.
template <typename Sim, typename Config>
void expect_noop_fault_layer(const Config& config) {
  const auto baseline = fingerprint(Sim(config).run());

  sim::InvariantChecker checker;
  Sim sim(config);
  sim.set_fault_plan(sim::FaultPlan{});
  sim.set_crash_model(sim::CrashModel{});
  sim.attach_checker(&checker);
  const auto armed = fingerprint(sim.run());

  EXPECT_EQ(baseline.value(), armed.value())
      << "empty fault plan perturbed the run";
  checker.check_overlay(sim.overlay());
  checker.check_ledger(sim.ledger());
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(checker.events_seen(), 0u)
      << "checker attached but no traffic was traced";
  EXPECT_EQ(checker.crashes_seen(), 0u);
}

TEST(FaultGolden, GnutellaEmptyPlanIsNoop) {
  expect_noop_fault_layer<gnutella::Simulation>(
      simtest::golden_gnutella_config());
}

TEST(FaultGolden, DigLibEmptyPlanIsNoop) {
  expect_noop_fault_layer<diglib::DigLibSim>(simtest::golden_diglib_config());
}

TEST(FaultGolden, OlapEmptyPlanIsNoop) {
  expect_noop_fault_layer<olap::OlapSim>(simtest::golden_olap_config());
}

TEST(FaultGolden, WebCacheEmptyPlanIsNoop) {
  expect_noop_fault_layer<webcache::WebCacheSim>(
      simtest::golden_webcache_config());
}

// With real loss the checker still closes every invariant, and the ledger
// reconciles exactly with the trace for every message type.
TEST(FaultGolden, GnutellaLossyRunIsCheckerClean) {
  auto config = simtest::golden_gnutella_config();
  sim::FaultRule rule;
  rule.drop_prob = 0.1;
  rule.duplicate_prob = 0.05;
  sim::FaultPlan plan;
  plan.set_rule(net::MessageType::kQuery, rule);
  plan.set_rule(net::MessageType::kQueryReply, rule);

  sim::InvariantChecker checker;
  gnutella::Simulation sim(config);
  sim.set_fault_plan(plan);
  sim.attach_checker(&checker);
  const auto r = sim.run();

  checker.check_overlay(sim.overlay());
  checker.check_ledger(sim.ledger());
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(sim.ledger().total_dropped(), 0u);
  EXPECT_GT(r.total_hits(), 0u);
}

}  // namespace
}  // namespace dsf
