// Fault-injection layer: plan validation, the zero-draw guarantees that
// make an armed-but-idle layer a true no-op, per-type drop/duplicate/
// delay behaviour through the engine's unified send(), the crash model's
// no-cleanup semantics, and small adversarial end-to-end runs of every
// scenario simulator with the invariant checker attached.
#include "sim/fault.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "diglib/diglib_sim.h"
#include "gnutella/simulation.h"
#include "obs/ring_sink.h"
#include "olap/olap_sim.h"
#include "sim/engine.h"
#include "sim/invariants.h"
#include "webcache/webcache_sim.h"

namespace dsf::sim {
namespace {

class TestEngine : public OverlayEngine {
 public:
  explicit TestEngine(EngineConfig cfg) : OverlayEngine(std::move(cfg)) {}

  using OverlayEngine::begin_faulty_search;
  using OverlayEngine::run_until_horizon;
  using OverlayEngine::send;
  using OverlayEngine::transmit;
};

EngineConfig small_config() {
  EngineConfig cfg;
  cfg.name = "fault-test";
  cfg.num_nodes = 8;
  cfg.seed = 42;
  cfg.relation = core::RelationKind::kAsymmetric;
  cfg.out_capacity = 3;
  cfg.in_capacity = 8;
  cfg.sim_hours = 1.0;
  cfg.warmup_hours = 0.0;
  return cfg;
}

// --- plan construction ---------------------------------------------------

TEST(FaultPlan, RejectsInvalidRules) {
  FaultPlan plan;
  FaultRule r;

  r.drop_prob = -0.1;
  EXPECT_THROW(plan.set_rule(net::MessageType::kQuery, r),
               std::invalid_argument);
  r.drop_prob = 1.5;
  EXPECT_THROW(plan.set_rule(net::MessageType::kQuery, r),
               std::invalid_argument);

  r = FaultRule{};
  r.drop_prob = 0.6;
  r.duplicate_prob = 0.5;  // sum > 1: the single draw cannot partition
  EXPECT_THROW(plan.set_rule(net::MessageType::kQuery, r),
               std::invalid_argument);

  r = FaultRule{};
  r.delay_prob = 0.1;
  r.extra_delay_s = -1.0;
  EXPECT_THROW(plan.set_rule(net::MessageType::kQuery, r),
               std::invalid_argument);

  r = FaultRule{};
  r.drop_prob = 0.1;
  r.window_start_s = 50.0;
  r.window_end_s = 10.0;  // inverted window
  EXPECT_THROW(plan.set_rule(net::MessageType::kQuery, r),
               std::invalid_argument);

  EXPECT_TRUE(plan.empty()) << "rejected rules must not arm the plan";
}

TEST(FaultPlan, EmptyAndTrivialRulesStayEmpty) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.set_rule(net::MessageType::kQuery, FaultRule{});  // all-zero probs
  EXPECT_TRUE(plan.empty());

  FaultRule r;
  r.drop_prob = 0.25;
  plan.set_rule(net::MessageType::kQuery, r);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(plan.targets(net::MessageType::kQuery));
  EXPECT_FALSE(plan.targets(net::MessageType::kPing));
}

// --- the zero-draw guarantees --------------------------------------------

TEST(FaultPlan, DecideConsumesNoDrawForUntargetedType) {
  FaultPlan plan;
  FaultRule r;
  r.drop_prob = 1.0;
  plan.set_rule(net::MessageType::kQuery, r);

  des::Rng lane = make_fault_lane(7);
  des::Rng reference = lane;
  const auto d = plan.decide(net::MessageType::kPing, 0.0, lane);
  EXPECT_FALSE(d.drop);
  EXPECT_EQ(lane.next(), reference.next()) << "untargeted decide drew";
}

TEST(FaultPlan, DecideConsumesNoDrawOutsideTheWindow) {
  FaultPlan plan;
  FaultRule r;
  r.drop_prob = 1.0;
  r.window_start_s = 10.0;
  r.window_end_s = 20.0;
  plan.set_rule(net::MessageType::kQuery, r);

  des::Rng lane = make_fault_lane(7);
  des::Rng reference = lane;
  EXPECT_FALSE(plan.decide(net::MessageType::kQuery, 5.0, lane).drop);
  EXPECT_FALSE(plan.decide(net::MessageType::kQuery, 20.0, lane).drop);
  EXPECT_EQ(lane.next(), reference.next()) << "out-of-window decide drew";

  des::Rng lane2 = make_fault_lane(7);
  EXPECT_TRUE(plan.decide(net::MessageType::kQuery, 15.0, lane2).drop);
}

TEST(FaultPlan, WindowBoundariesAreInclusiveStartExclusiveEnd) {
  // Pins the documented half-open [window_start_s, window_end_s)
  // semantics at the exact boundary instants: an event at precisely
  // window_start_s is inside (fires AND consumes its one draw), an event
  // at precisely window_end_s is outside (inert AND consumes zero draws).
  // The draw count is verified on the raw Rng state words, not just the
  // decision, so a refactor that keeps the decision but moves the draw
  // outside the window check still fails here.
  FaultPlan plan;
  FaultRule r;
  r.drop_prob = 1.0;
  r.window_start_s = 10.0;
  r.window_end_s = 20.0;
  plan.set_rule(net::MessageType::kQuery, r);

  des::Rng lane = make_fault_lane(7);
  const auto before_start = lane.state();
  EXPECT_TRUE(plan.decide(net::MessageType::kQuery, 10.0, lane).drop)
      << "an event at exactly window_start_s must be inside the window";
  EXPECT_NE(lane.state(), before_start)
      << "an in-window decide must consume exactly its draw";

  const auto before_end = lane.state();
  EXPECT_FALSE(plan.decide(net::MessageType::kQuery, 20.0, lane).drop)
      << "an event at exactly window_end_s must be outside the window";
  EXPECT_EQ(lane.state(), before_end)
      << "an out-of-window decide must not touch the lane";

  // Just inside the end: the last representable instant before
  // window_end_s still fires.
  const double just_inside =
      std::nextafter(20.0, 0.0);
  const auto before_inside = lane.state();
  EXPECT_TRUE(plan.decide(net::MessageType::kQuery, just_inside, lane).drop);
  EXPECT_NE(lane.state(), before_inside);
}

// --- per-type behaviour through the unified send() ------------------------

TEST(FaultLayer, DropsEveryTargetedTypeThroughSend) {
  for (int i = 0; i < net::kNumMessageTypes; ++i) {
    const auto type = static_cast<net::MessageType>(i);
    TestEngine e(small_config());
    FaultPlan plan;
    FaultRule r;
    r.drop_prob = 1.0;
    plan.set_rule(type, r);
    e.set_fault_plan(plan);

    bool delivered = false;
    e.send(0, 1, type, [&] { delivered = true; });
    e.simulator().run();

    EXPECT_FALSE(delivered) << net::to_string(type);
    EXPECT_EQ(e.ledger().dropped(type), 1u) << net::to_string(type);
    EXPECT_EQ(e.ledger().delivered(type), 0u) << net::to_string(type);
    EXPECT_EQ(e.traffic().total(type), 1u) << net::to_string(type);
  }
}

TEST(FaultLayer, DuplicatesDeliverTwiceAndCountTwice) {
  TestEngine e(small_config());
  FaultPlan plan;
  FaultRule r;
  r.duplicate_prob = 1.0;
  plan.set_rule(net::MessageType::kPing, r);
  e.set_fault_plan(plan);

  int deliveries = 0;
  e.send(0, 1, net::MessageType::kPing, [&] { ++deliveries; });
  e.simulator().run();

  EXPECT_EQ(deliveries, 2);
  // Both copies were put on the wire and both arrived: conservation holds
  // with sent == delivered == 2.
  EXPECT_EQ(e.traffic().total(net::MessageType::kPing), 2u);
  EXPECT_EQ(e.ledger().delivered(net::MessageType::kPing), 2u);
  EXPECT_EQ(e.ledger().dropped(net::MessageType::kPing), 0u);
}

TEST(FaultLayer, ExtraDelayPostponesDelivery) {
  TestEngine e(small_config());
  FaultPlan plan;
  FaultRule r;
  r.delay_prob = 1.0;
  r.extra_delay_s = 5.0;
  plan.set_rule(net::MessageType::kPong, r);
  e.set_fault_plan(plan);

  double delivered_at = -1.0;
  e.send(0, 1, net::MessageType::kPong,
         [&] { delivered_at = e.simulator().now(); });
  e.simulator().run();

  EXPECT_GE(delivered_at, 5.0) << "extra delay was not applied";
  EXPECT_EQ(e.ledger().delivered(net::MessageType::kPong), 1u);
}

TEST(FaultLayer, SynchronousTransmitResolvesFates) {
  TestEngine e(small_config());
  FaultPlan plan;
  FaultRule r;
  r.drop_prob = 1.0;
  plan.set_rule(net::MessageType::kQuery, r);
  e.set_fault_plan(plan);

  e.begin_faulty_search(3);
  const auto dropped = e.transmit(net::MessageType::kQuery, 0, 1, 3);
  EXPECT_FALSE(dropped.deliver);
  EXPECT_EQ(e.ledger().dropped(net::MessageType::kQuery), 1u);

  // Untargeted type: clean pass-through.
  const auto clean = e.transmit(net::MessageType::kQueryReply, 1, 0, -1);
  EXPECT_TRUE(clean.deliver);
  EXPECT_FALSE(clean.duplicate);
  EXPECT_DOUBLE_EQ(clean.extra_delay_s, 0.0);
  EXPECT_EQ(e.ledger().delivered(net::MessageType::kQueryReply), 1u);
}

// --- crashes -------------------------------------------------------------

TEST(FaultLayer, CrashedPeerDropsArrivingCopies) {
  TestEngine e(small_config());
  InvariantChecker checker;
  e.attach_checker(&checker);

  e.crash_node(1);
  EXPECT_TRUE(e.node_dead(1));
  EXPECT_FALSE(e.node_dead(0));
  EXPECT_EQ(e.crashes(), 1u);
  e.crash_node(1);  // idempotent: a dead peer cannot crash again
  EXPECT_EQ(e.crashes(), 1u);

  bool delivered = false;
  e.send(0, 1, net::MessageType::kQuery, [&] { delivered = true; });
  e.simulator().run();

  EXPECT_FALSE(delivered);
  EXPECT_EQ(e.ledger().dropped(net::MessageType::kQuery), 1u);
  // The checker saw the crash and the drop — and no dead delivery.
  EXPECT_EQ(checker.crashes_seen(), 1u);
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(FaultLayer, CrashModelSchedulesPoissonCrashes) {
  auto cfg = small_config();
  TestEngine e(cfg);
  CrashModel crashes;
  crashes.rate_per_hour = 20.0;  // ~20 expected over the 1 h horizon
  crashes.max_crashes = 5;
  e.set_crash_model(crashes);
  e.run_until_horizon();

  EXPECT_EQ(e.crashes(), 5u) << "rate 20/h over 1 h must hit the cap of 5";
  std::size_t dead = 0;
  for (net::NodeId u = 0; u < e.num_nodes(); ++u)
    if (e.node_dead(u)) ++dead;
  EXPECT_EQ(dead, 5u);
}

TEST(FaultLayer, CrashWindowConfinesCrashes) {
  auto cfg = small_config();
  TestEngine e(cfg);
  obs::RingSink ring;
  e.set_trace_sink(&ring);
  CrashModel crashes;
  crashes.rate_per_hour = 60.0;
  crashes.start_s = 1000.0;
  crashes.end_s = 2000.0;
  e.set_crash_model(crashes);
  e.run_until_horizon();

  std::vector<double> crash_times;
  for (const obs::Record& r : ring.snapshot())
    if (r.kind == obs::RecordKind::kPeerCrash) crash_times.push_back(r.time_s);
  ASSERT_FALSE(crash_times.empty());
  for (double t : crash_times) {
    EXPECT_GE(t, 1000.0);
    EXPECT_LT(t, 2000.0);
  }
}

// --- end-to-end: every scenario under loss + crashes, checker-clean ------

template <typename Sim, typename Config>
void expect_adversarial_run_clean(const Config& config, double drop) {
  FaultPlan plan;
  FaultRule r;
  r.drop_prob = drop;
  r.duplicate_prob = 0.05;
  r.delay_prob = 0.05;
  plan.set_rule_all(r);

  CrashModel crashes;
  crashes.rate_per_hour = 4.0;
  crashes.max_crashes = 3;

  InvariantChecker checker;
  Sim sim(config);
  sim.set_fault_plan(plan);
  sim.set_crash_model(crashes);
  sim.attach_checker(&checker);
  sim.run();

  checker.check_overlay(sim.overlay());
  checker.check_ledger(sim.ledger());
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(sim.ledger().total_dropped(), 0u)
      << "a lossy run must actually lose messages";
  EXPECT_GT(checker.events_seen(), 0u);
}

TEST(FaultAdversarial, GnutellaLossAndCrashesCheckerClean) {
  gnutella::Config c;
  c.num_users = 80;
  c.sim_hours = 1.0;
  c.warmup_hours = 0.2;
  c.seed = 4242;
  expect_adversarial_run_clean<gnutella::Simulation>(c, 0.2);
}

TEST(FaultAdversarial, GnutellaCrashMidQueryWindow) {
  // Crashes confined to the middle of the horizon: peers die while
  // queries and reconfigurations are in full swing, and the overlay must
  // keep every invariant (dangling entries are legal; deliveries to the
  // dead are not).
  gnutella::Config c;
  c.num_users = 80;
  c.sim_hours = 1.0;
  c.warmup_hours = 0.2;
  c.seed = 77;

  CrashModel crashes;
  crashes.rate_per_hour = 30.0;
  crashes.start_s = 1200.0;
  crashes.end_s = 2400.0;
  crashes.max_crashes = 8;

  InvariantChecker checker;
  gnutella::Simulation sim(c);
  sim.set_crash_model(crashes);
  sim.attach_checker(&checker);
  sim.run();

  checker.check_overlay(sim.overlay());
  checker.check_ledger(sim.ledger());
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(sim.crashes(), 0u);
}

TEST(FaultAdversarial, DigLibLossAndCrashesCheckerClean) {
  diglib::DigLibConfig c;
  c.num_repositories = 16;
  c.sim_hours = 0.4;
  c.warmup_hours = 0.1;
  c.seed = 4242;
  expect_adversarial_run_clean<diglib::DigLibSim>(c, 0.15);
}

TEST(FaultAdversarial, OlapLossAndCrashesCheckerClean) {
  olap::OlapConfig c;
  c.num_peers = 12;
  c.sim_hours = 0.4;
  c.warmup_hours = 0.1;
  c.seed = 4242;
  expect_adversarial_run_clean<olap::OlapSim>(c, 0.15);
}

TEST(FaultAdversarial, WebCacheLossAndCrashesCheckerClean) {
  webcache::WebCacheConfig c;
  c.num_proxies = 16;
  c.sim_hours = 0.4;
  c.warmup_hours = 0.1;
  c.seed = 4242;
  expect_adversarial_run_clean<webcache::WebCacheSim>(c, 0.15);
}

TEST(FaultAdversarial, LossReducesGnutellaHits) {
  gnutella::Config c;
  c.num_users = 100;
  c.sim_hours = 1.0;
  c.warmup_hours = 0.2;
  c.seed = 11;

  const auto baseline = gnutella::Simulation(c).run();

  FaultPlan plan;
  FaultRule r;
  r.drop_prob = 0.3;
  plan.set_rule(net::MessageType::kQuery, r);
  plan.set_rule(net::MessageType::kQueryReply, r);
  gnutella::Simulation lossy_sim(c);
  lossy_sim.set_fault_plan(plan);
  const auto lossy = lossy_sim.run();

  EXPECT_LT(lossy.total_hits(), baseline.total_hits())
      << "30% query/reply loss must cost hits";
  EXPECT_GT(lossy.total_hits(), 0u);
}

}  // namespace
}  // namespace dsf::sim
