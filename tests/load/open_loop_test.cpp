// Open-loop injection layer: determinism (disabled layer is a true
// no-op; same seed + schedule reproduces the report byte for byte),
// admission conservation certified by the invariant checker on every
// scenario simulator, and the engine-level option validation.
#include "load/open_loop.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "../sim/sim_fingerprints.h"
#include "load/report.h"
#include "load/schedule.h"
#include "metrics/json.h"
#include "sim/invariants.h"

namespace dsf::load {
namespace {

gnutella::Config small_gnutella() {
  gnutella::Config c;
  c.num_users = 100;
  c.catalog.num_songs = 5'000;
  c.sim_hours = 0.5;
  c.warmup_hours = 0.1;
  c.max_hops = 2;
  c.seed = 77;
  return c;
}

OpenLoopOptions constant_load(double qps, std::size_t cap,
                              double horizon_s) {
  OpenLoopOptions o;
  o.enabled = true;
  o.schedule = make_schedule(ScheduleKind::kConstant, qps, 1.0, horizon_s);
  o.admission_cap = cap;
  return o;
}

std::string report_json(const LoadStats& s, double measure_s) {
  metrics::JsonValue out = metrics::JsonValue::object();
  write_load_stats(out, s, measure_s);
  return out.to_string();
}

// --- determinism ---------------------------------------------------------

TEST(OpenLoop, DisabledLayerLeavesClosedLoopByteIdentical) {
  // The contract that lets the layer ship compiled-in: a run that never
  // enables injection must be bit-identical to one that explicitly set a
  // disabled options block — zero extra events, zero extra RNG draws.
  const auto c = small_gnutella();
  const auto baseline = simtest::fingerprint(gnutella::Simulation(c).run());

  gnutella::Simulation sim(c);
  sim.set_open_loop(OpenLoopOptions{});  // enabled = false
  const auto with_layer = simtest::fingerprint(sim.run());
  EXPECT_EQ(baseline.value(), with_layer.value());

  const LoadStats& s = sim.load_stats();
  EXPECT_EQ(s.offered, 0u);
  EXPECT_EQ(s.admitted, 0u);
}

TEST(OpenLoop, SameSeedSameScheduleIsByteIdenticalReport) {
  const auto c = small_gnutella();
  const double horizon_s = c.sim_hours * 3600.0;
  const double measure_s = (c.sim_hours - c.warmup_hours) * 3600.0;

  auto run_once = [&] {
    gnutella::Simulation sim(c);
    sim.set_open_loop(constant_load(4.0, 4, horizon_s));
    sim.run();
    return report_json(sim.load_stats(), measure_s);
  };
  const std::string a = run_once();
  const std::string b = run_once();
  EXPECT_GT(a.size(), 0u);
  EXPECT_EQ(a, b);
}

TEST(OpenLoop, InjectionDoesNotDisturbClosedLoopWorkload) {
  // The injected stream rides its own RNG lane, so the closed-loop side
  // of the same run keeps issuing the same number of its own queries.
  const auto c = small_gnutella();
  const auto closed = gnutella::Simulation(c).run();

  gnutella::Simulation sim(c);
  sim.set_open_loop(constant_load(2.0, 4, c.sim_hours * 3600.0));
  const auto mixed = sim.run();
  EXPECT_EQ(closed.queries_issued, mixed.queries_issued);
}

// --- conservation on every scenario --------------------------------------

TEST(OpenLoop, GnutellaConservationCertifiedByChecker) {
  const auto c = small_gnutella();
  gnutella::Simulation sim(c);
  sim.set_open_loop(constant_load(5.0, 4, c.sim_hours * 3600.0));
  sim.run();
  const LoadStats& s = sim.load_stats();
  EXPECT_GT(s.offered, 0u);
  EXPECT_GT(s.completed, 0u);
  sim::InvariantChecker checker;
  checker.check_admission(s);
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(OpenLoop, WebCacheConservationCertifiedByChecker) {
  auto c = simtest::golden_webcache_config();
  c.sim_hours = 0.5;
  webcache::WebCacheSim sim(c);
  sim.set_open_loop(constant_load(3.0, 4, c.sim_hours * 3600.0));
  sim.run();
  const LoadStats& s = sim.load_stats();
  EXPECT_GT(s.completed, 0u);
  EXPECT_LE(s.hits, s.completed);
  sim::InvariantChecker checker;
  checker.check_admission(s);
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(OpenLoop, OlapConservationCertifiedByChecker) {
  auto c = simtest::golden_olap_config();
  c.sim_hours = 0.5;
  olap::OlapSim sim(c);
  sim.set_open_loop(constant_load(2.0, 4, c.sim_hours * 3600.0));
  sim.run();
  const LoadStats& s = sim.load_stats();
  EXPECT_GT(s.completed, 0u);
  sim::InvariantChecker checker;
  checker.check_admission(s);
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(OpenLoop, DigLibConservationCertifiedByChecker) {
  auto c = simtest::golden_diglib_config();
  diglib::DigLibSim sim(c);
  sim.set_open_loop(constant_load(3.0, 4, c.sim_hours * 3600.0));
  sim.run();
  const LoadStats& s = sim.load_stats();
  EXPECT_GT(s.completed, 0u);
  EXPECT_LE(s.hits, s.completed);
  sim::InvariantChecker checker;
  checker.check_admission(s);
  EXPECT_TRUE(checker.ok()) << checker.report();
}

// --- admission behavior ---------------------------------------------------

TEST(OpenLoop, TightCapShedsUnderOverload) {
  const auto c = small_gnutella();
  gnutella::Simulation sim(c);
  // Offered far above what 100 peers can serve with one-deep queues.
  sim.set_open_loop(constant_load(40.0, 1, c.sim_hours * 3600.0));
  sim.run();
  const LoadStats& s = sim.load_stats();
  EXPECT_GT(s.rejected, 0u);
  EXPECT_GT(s.offered, s.admitted);
  sim::InvariantChecker checker;
  checker.check_admission(s);
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(OpenLoop, TraceDrivenArrivalsAreCountedExactly) {
  const auto c = small_gnutella();
  gnutella::Simulation sim(c);
  OpenLoopOptions o;
  o.enabled = true;
  o.trace = {{100.0, 0, 42}, {200.0, kAnyPeer, kAnyItem}, {300.0, 5, 7}};
  o.admission_cap = 4;
  sim.set_open_loop(std::move(o));
  sim.run();
  const LoadStats& s = sim.load_stats();
  EXPECT_EQ(s.offered, 3u);
  sim::InvariantChecker checker;
  checker.check_admission(s);
  EXPECT_TRUE(checker.ok()) << checker.report();
}

// --- option validation ----------------------------------------------------

TEST(OpenLoop, ZeroCapIsRejected) {
  gnutella::Simulation sim(small_gnutella());
  auto o = constant_load(1.0, 4, 1800.0);
  o.admission_cap = 0;
  EXPECT_THROW(sim.set_open_loop(std::move(o)), std::invalid_argument);
}

TEST(OpenLoop, NoRateAndNoTraceIsRejected) {
  gnutella::Simulation sim(small_gnutella());
  OpenLoopOptions o;
  o.enabled = true;  // but no schedule rate and no trace
  EXPECT_THROW(sim.set_open_loop(std::move(o)), std::invalid_argument);
}

TEST(OpenLoop, TracePeerBeyondPopulationIsRejected) {
  gnutella::Simulation sim(small_gnutella());
  OpenLoopOptions o;
  o.enabled = true;
  o.trace = {{10.0, 100, kAnyItem}};  // population is 100: ids 0..99
  EXPECT_THROW(sim.set_open_loop(std::move(o)), std::invalid_argument);
}

}  // namespace
}  // namespace dsf::load
