#include "sim/engine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/benefit.h"
#include "diglib/diglib_sim.h"
#include "core/stats_store.h"
#include "core/visit_stamp.h"
#include "des/rng.h"
#include "load/schedule.h"
#include "obs/ring_sink.h"
#include "sim/policy.h"
#include "sim/validate.h"

namespace dsf::sim {
namespace {

/// Exposes the protected scenario-facing surface for direct testing.
class TestEngine : public OverlayEngine {
 public:
  explicit TestEngine(EngineConfig cfg) : OverlayEngine(std::move(cfg)) {}

  using OverlayEngine::count;
  using OverlayEngine::default_bootstrap_attempts;
  using OverlayEngine::draw_initial_online;
  using OverlayEngine::engine_config;
  using OverlayEngine::fill_random_neighbors;
  using OverlayEngine::horizon_s;
  using OverlayEngine::query_rng;
  using OverlayEngine::reporting;
  using OverlayEngine::rng;
  using OverlayEngine::run_until_horizon;
  using OverlayEngine::sample_delay_s;
  using OverlayEngine::schedule_every;
  using OverlayEngine::send;
  using OverlayEngine::send_batch;
  using OverlayEngine::session_rng;
  using OverlayEngine::topo_rng;
  using OverlayEngine::warmup_s;
};

EngineConfig small_config() {
  EngineConfig cfg;
  cfg.name = "test";
  cfg.num_nodes = 8;
  cfg.seed = 42;
  cfg.relation = core::RelationKind::kAsymmetric;
  cfg.out_capacity = 3;
  cfg.in_capacity = 8;
  cfg.sim_hours = 0.01;  // 36 s horizon
  cfg.warmup_hours = 0.0;
  return cfg;
}

TEST(MakeLanes, FourLaneSplitsInFixedOrder) {
  des::Rng master(7);
  auto lanes = make_lanes(master, RngLayout::kFourLane);

  des::Rng reference(7);
  des::Rng topo = reference.split();
  des::Rng session = reference.split();
  des::Rng query = reference.split();
  des::Rng delay = reference.split();

  EXPECT_EQ(lanes.topo.next(), topo.next());
  EXPECT_EQ(lanes.session.next(), session.next());
  EXPECT_EQ(lanes.query.next(), query.next());
  EXPECT_EQ(lanes.delay.next(), delay.next());
  // The master streams advanced identically.
  EXPECT_EQ(master.next(), reference.next());
}

TEST(MakeLanes, CompactSplitsOnlyTheDelayLane) {
  des::Rng master(7);
  auto lanes = make_lanes(master, RngLayout::kCompact);

  des::Rng reference(7);
  des::Rng delay = reference.split();

  EXPECT_EQ(lanes.delay.next(), delay.next());
  EXPECT_EQ(master.next(), reference.next());
}

TEST(OverlayEngine, CompactLaneAccessorsAliasTheMasterStream) {
  TestEngine e(small_config());
  // All three accessors are one stream: interleaved draws advance it.
  const auto a = e.topo_rng().next();
  const auto b = e.session_rng().next();
  const auto c = e.query_rng().next();
  EXPECT_NE(a, b);
  EXPECT_EQ(&e.topo_rng(), &e.session_rng());
  EXPECT_EQ(&e.session_rng(), &e.query_rng());
  EXPECT_EQ(&e.query_rng(), &e.rng());
  (void)c;
}

TEST(OverlayEngine, FourLaneAccessorsAreIndependentStreams) {
  auto cfg = small_config();
  cfg.rng_layout = RngLayout::kFourLane;
  TestEngine e(cfg);
  EXPECT_NE(&e.topo_rng(), &e.session_rng());
  EXPECT_NE(&e.session_rng(), &e.query_rng());
  EXPECT_NE(&e.topo_rng(), &e.rng());
}

TEST(MessageLedger, CountsMessagesAndDefaultBytes) {
  MessageLedger ledger;
  ledger.count(net::MessageType::kQuery);
  ledger.count(net::MessageType::kQuery, 2);
  ledger.count(net::MessageType::kPong, 1, 100);  // explicit byte override

  EXPECT_EQ(ledger.stats().total(net::MessageType::kQuery), 3u);
  EXPECT_EQ(ledger.bytes(net::MessageType::kQuery),
            3 * default_message_bytes(net::MessageType::kQuery));
  EXPECT_EQ(ledger.bytes(net::MessageType::kPong), 100u);
  EXPECT_EQ(ledger.total_bytes(),
            3 * default_message_bytes(net::MessageType::kQuery) + 100u);
  EXPECT_EQ(ledger.stats().total(), 4u);
}

TEST(DefaultMessageBytes, EveryTypeHasAPositiveWireSize) {
  for (int i = 0; i < net::kNumMessageTypes; ++i)
    EXPECT_GT(default_message_bytes(static_cast<net::MessageType>(i)), 0u)
        << "type " << i;
}

TEST(OverlayEngine, SendAccountsTracesAndDelivers) {
  TestEngine e(small_config());
  obs::RingSink ring;
  e.set_trace_sink(&ring);

  bool delivered = false;
  e.send(0, 1, net::MessageType::kQuery, [&] { delivered = true; });

  EXPECT_EQ(e.traffic().total(net::MessageType::kQuery), 1u);
  EXPECT_EQ(e.ledger().bytes(net::MessageType::kQuery),
            default_message_bytes(net::MessageType::kQuery));
  auto trace = ring.snapshot();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].kind, obs::RecordKind::kSend);
  EXPECT_EQ(trace[0].from, 0u);
  EXPECT_EQ(trace[0].to, 1u);
  EXPECT_EQ(trace[0].type, static_cast<std::uint8_t>(net::MessageType::kQuery));
  EXPECT_EQ(trace[0].unpack_bytes(),
            default_message_bytes(net::MessageType::kQuery));
  EXPECT_FALSE(trace[0].unpack_abuse());
  EXPECT_EQ(trace[0].b, 1u);     // one copy
  EXPECT_EQ(trace[0].ttl, -1);  // send() traffic carries no hop budget

  EXPECT_FALSE(delivered);
  e.simulator().run();
  EXPECT_TRUE(delivered);
  EXPECT_GT(e.simulator().now(), 0.0);  // the delay sample was positive
  trace = ring.snapshot();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[1].kind, obs::RecordKind::kRecv);  // the copy's fate
  EXPECT_EQ(trace[1].time_s, e.simulator().now());
  EXPECT_EQ(e.ledger().delivered(net::MessageType::kQuery), 1u);
}

TEST(OverlayEngine, SendBatchMatchesPerTargetSendExactly) {
  // The batched fan-out is an accounting + scheduling shortcut, not a
  // semantic change: with the same seed it must produce byte-identical
  // ledger counts and delivery times as a per-target send() loop, because
  // delays are sampled in target order either way.
  const std::vector<net::NodeId> targets{1, 3, 5, 2, 7};

  TestEngine a(small_config());
  std::vector<std::pair<net::NodeId, double>> deliveries_a;
  for (const auto to : targets)
    a.send(0, to, net::MessageType::kQuery,
           [&, to] { deliveries_a.emplace_back(to, a.simulator().now()); });
  a.simulator().run();

  TestEngine b(small_config());
  std::vector<std::pair<net::NodeId, double>> deliveries_b;
  b.send_batch(0, targets, net::MessageType::kQuery, [&](std::size_t i) {
    const auto to = targets[i];
    return [&, to] { deliveries_b.emplace_back(to, b.simulator().now()); };
  });
  b.simulator().run();

  EXPECT_EQ(a.traffic().total(net::MessageType::kQuery), targets.size());
  EXPECT_EQ(b.traffic().total(net::MessageType::kQuery), targets.size());
  EXPECT_EQ(a.ledger().bytes(net::MessageType::kQuery),
            b.ledger().bytes(net::MessageType::kQuery));

  ASSERT_EQ(deliveries_a.size(), targets.size());
  ASSERT_EQ(deliveries_b.size(), targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(deliveries_a[i].first, deliveries_b[i].first);
    EXPECT_EQ(deliveries_a[i].second, deliveries_b[i].second);  // exact
  }
}

TEST(OverlayEngine, TracedSendBatchMatchesPerTargetSendExactly) {
  // With a sink attached both forms take the traced per-copy path: the
  // record streams (every send, then each copy's delivery in arrival
  // order) and the fate counters must agree exactly.
  const std::vector<net::NodeId> targets{1, 3, 5, 2, 7};

  TestEngine a(small_config());
  obs::RingSink ring_a;
  a.set_trace_sink(&ring_a);
  for (const auto to : targets) a.send(0, to, net::MessageType::kQuery, [] {});
  a.simulator().run();

  TestEngine b(small_config());
  obs::RingSink ring_b;
  b.set_trace_sink(&ring_b);
  b.send_batch(0, targets, net::MessageType::kQuery,
               [](std::size_t) { return [] {}; });
  b.simulator().run();

  EXPECT_EQ(a.ledger().delivered(net::MessageType::kQuery), targets.size());
  EXPECT_EQ(b.ledger().delivered(net::MessageType::kQuery), targets.size());
  const auto trace_a = ring_a.snapshot();
  const auto trace_b = ring_b.snapshot();
  ASSERT_EQ(trace_a.size(), 2 * targets.size());
  ASSERT_EQ(trace_b.size(), trace_a.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(trace_a[i].kind, obs::RecordKind::kSend);
    EXPECT_EQ(trace_a[i].to, targets[i]);
  }
  for (std::size_t i = 0; i < trace_a.size(); ++i) {
    EXPECT_EQ(trace_a[i].kind, trace_b[i].kind);
    EXPECT_EQ(trace_a[i].to, trace_b[i].to);
    EXPECT_EQ(trace_a[i].type, trace_b[i].type);
    EXPECT_EQ(trace_a[i].a, trace_b[i].a);
    EXPECT_EQ(trace_a[i].b, trace_b[i].b);
    EXPECT_EQ(trace_a[i].time_s, trace_b[i].time_s);  // exact
  }
}

TEST(OverlayEngine, SendBatchWithEmptyTargetListIsANoOp) {
  TestEngine e(small_config());
  const std::vector<net::NodeId> none;
  e.send_batch(0, none, net::MessageType::kQuery,
               [&](std::size_t) { return [] {}; });
  EXPECT_EQ(e.traffic().total(net::MessageType::kQuery), 0u);
  EXPECT_TRUE(e.simulator().queue().empty());
}

TEST(OverlayEngine, ScheduleEveryFiresAtFirstDelayThenEveryPeriod) {
  TestEngine e(small_config());
  std::vector<double> fire_times;
  e.schedule_every(1.0, 2.0,
                   [&] { fire_times.push_back(e.simulator().now()); });
  e.simulator().run_until(6.0);
  ASSERT_EQ(fire_times.size(), 3u);
  EXPECT_DOUBLE_EQ(fire_times[0], 1.0);
  EXPECT_DOUBLE_EQ(fire_times[1], 3.0);
  EXPECT_DOUBLE_EQ(fire_times[2], 5.0);
}

TEST(OverlayEngine, FillRandomNeighborsReachesTargetDegree) {
  TestEngine e(small_config());
  int links = 0;
  e.fill_random_neighbors(
      0, 3, e.default_bootstrap_attempts(),
      [&] { return static_cast<net::NodeId>(e.rng().uniform_int(8)); },
      [&] { ++links; });
  EXPECT_EQ(e.overlay().out_neighbors(0).size(), 3u);
  EXPECT_EQ(links, 3);
  EXPECT_EQ(e.bootstrap_underfills(), 0u);
  EXPECT_TRUE(e.overlay().consistent());
}

TEST(OverlayEngine, FillRandomNeighborsRecordsUnderfill) {
  TestEngine e(small_config());
  // A pick that only ever proposes a self-link exhausts the budget.
  int attempts_seen = 0;
  e.fill_random_neighbors(
      0, 3, e.default_bootstrap_attempts(),
      [&] {
        ++attempts_seen;
        return static_cast<net::NodeId>(0);
      },
      [] { FAIL() << "no link should form"; });
  EXPECT_EQ(attempts_seen, e.default_bootstrap_attempts());
  EXPECT_TRUE(e.overlay().out_neighbors(0).empty());
  EXPECT_EQ(e.bootstrap_underfills(), 1u);
}

TEST(OverlayEngine, BootstrapUnderfillReportsThroughWarningSink) {
  TestEngine e(small_config());
  std::vector<std::string> warnings;
  e.set_warning_sink([&](const std::string& w) { warnings.push_back(w); });
  // Same degenerate pick as above: the budget burns out with zero links.
  e.fill_random_neighbors(
      0, 3, e.default_bootstrap_attempts(),
      [] { return static_cast<net::NodeId>(0); }, [] {});
  ASSERT_EQ(e.bootstrap_underfills(), 1u);
  EXPECT_TRUE(warnings.empty()) << "report happens at end of run, not inline";

  e.run_until_horizon();
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("bootstrap"), std::string::npos) << warnings[0];
  EXPECT_NE(warnings[0].find("1"), std::string::npos) << warnings[0];

  // The report fires once, not once per horizon call.
  e.run_until_horizon();
  EXPECT_EQ(warnings.size(), 1u);
}

TEST(OverlayEngine, TooDenseConfigReportsUnderfillFromRealRun) {
  // Two repositories cannot give each other three distinct neighbors: the
  // bootstrap must under-fill and say so through the sink.
  diglib::DigLibConfig c;
  c.num_repositories = 2;
  c.num_neighbors = 3;
  c.num_docs = 100;
  c.num_topics = 2;
  c.holdings = 10;
  c.sim_hours = 0.02;
  c.warmup_hours = 0.0;
  c.seed = 3;
  diglib::DigLibSim sim(c);
  std::vector<std::string> warnings;
  sim.set_warning_sink([&](const std::string& w) { warnings.push_back(w); });
  sim.run();
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("bootstrap"), std::string::npos) << warnings[0];
}

TEST(OverlayEngine, SnapshotExclusionsNameBothLayers) {
  // Open-loop injection, the adversary layer and arrival capture keep
  // state the snapshot format does not carry.  Each is rejected against a
  // snapshot in every order — armed before a save or a load, or armed
  // after either — with an error naming both layers.
  diglib::DigLibConfig c;
  c.num_repositories = 8;
  c.num_docs = 200;
  c.num_topics = 2;
  c.holdings = 20;
  c.sim_hours = 0.05;
  c.warmup_hours = 0.0;
  c.seed = 3;
  const std::string path = ::testing::TempDir() + "dsf_exclusions.snap";
  {
    diglib::DigLibSim saver(c);
    saver.request_snapshot_save(path, 60.0);
    saver.run();
  }

  load::OpenLoopOptions open_loop;
  open_loop.enabled = true;
  open_loop.schedule = load::make_schedule(load::ScheduleKind::kConstant, 1.0,
                                           1.0, c.sim_hours * 3600.0);
  AdversaryPlan adversary;
  adversary.abuser_fraction = 0.25;
  adversary.abuse_rate_per_s = 0.1;
  using Arm = std::function<void(diglib::DigLibSim&)>;
  const std::vector<std::pair<std::string, Arm>> layers{
      {"open-loop", [&](diglib::DigLibSim& s) { s.set_open_loop(open_loop); }},
      {"adversary", [&](diglib::DigLibSim& s) { s.set_adversary(adversary); }},
      {"capture-trace",
       [&](diglib::DigLibSim& s) { s.set_capture_trace(path + ".cap"); }},
  };
  const auto expect_conflict = [](const std::string& layer,
                                  const std::string& order,
                                  const std::function<void()>& fn) {
    try {
      fn();
      ADD_FAILURE() << layer << ", " << order << ": accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(layer), std::string::npos) << order << ": " << what;
      EXPECT_NE(what.find("snapshot"), std::string::npos)
          << order << ": " << what;
    }
  };
  for (const auto& [layer, arm] : layers) {
    {
      diglib::DigLibSim s(c);
      arm(s);
      expect_conflict(layer, "armed, then save",
                      [&] { s.request_snapshot_save(path, 60.0); });
    }
    {
      diglib::DigLibSim s(c);
      arm(s);
      expect_conflict(layer, "armed, then load",
                      [&] { s.load_snapshot(path); });
    }
    {
      diglib::DigLibSim s(c);
      s.request_snapshot_save(path + ".again", 60.0);
      expect_conflict(layer, "save, then armed", [&] { arm(s); });
    }
    {
      diglib::DigLibSim s(c);
      s.load_snapshot(path);
      expect_conflict(layer, "load, then armed", [&] { arm(s); });
    }
  }
  std::remove(path.c_str());
}

TEST(OverlayEngine, DefaultBootstrapAttemptsIsFourPerSlot) {
  TestEngine e(small_config());
  EXPECT_EQ(e.default_bootstrap_attempts(), 12);  // 4 * out_capacity(3)
}

TEST(OverlayEngine, DrawInitialOnlineWithNoChurnSelectsEveryNode) {
  TestEngine e(small_config());
  const NoChurn churn;
  const auto online = e.draw_initial_online(churn, e.rng());
  ASSERT_EQ(online.size(), e.num_nodes());
  for (net::NodeId u = 0; u < e.num_nodes(); ++u) EXPECT_EQ(online[u], u);
}

TEST(OverlayEngine, TrafficSamplingRecordsCumulativeCounts) {
  TestEngine e(small_config());
  e.set_traffic_sample_period(10.0);
  // One query at t=0 and one more every 12 s via a periodic event.
  e.count(net::MessageType::kQuery);
  e.schedule_every(12.0, 12.0, [&] { e.count(net::MessageType::kQuery); });
  e.run_until_horizon();  // 36 s horizon -> samples at 10, 20, 30

  const auto& samples = e.traffic_samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_DOUBLE_EQ(samples[0].time_s, 10.0);
  EXPECT_EQ(samples[0].messages, 1u);  // t=0 count only
  EXPECT_EQ(samples[1].messages, 2u);  // + t=12
  EXPECT_EQ(samples[2].messages, 3u);  // + t=24
  EXPECT_GT(samples[2].bytes, samples[0].bytes);
  ASSERT_TRUE(e.traffic_series().has_value());
}

TEST(OverlayEngine, ReportingFlipsAfterWarmup) {
  auto cfg = small_config();
  cfg.warmup_hours = 0.005;  // 18 s
  TestEngine e(cfg);
  EXPECT_FALSE(e.reporting());
  e.simulator().run_until(18.0);
  EXPECT_TRUE(e.reporting());
}

TEST(Validate, HelpersProduceConsistentMessages) {
  EXPECT_NO_THROW(validate_or_throw(true, "x", "fine"));
  try {
    require_positive("olap", "num_peers", 0);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "olap: num_peers must be positive");
  }
  try {
    require_divides("diglib", "num_docs", 10, "num_topics", 3);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "diglib: num_docs must divide evenly into num_topics");
  }
  // A zero divisor is rejected before the modulo.
  EXPECT_THROW(require_divides("diglib", "num_docs", 10, "num_topics", 0),
               std::invalid_argument);
  EXPECT_NO_THROW(require_divides("diglib", "num_docs", 12, "num_topics", 3));
}

TEST(MakeBenefit, CoversEveryPolicy) {
  const struct {
    BenefitPolicy policy;
    std::string_view name;
  } kCases[] = {
      {BenefitPolicy::kBandwidthOverResults, "bandwidth/results"},
      {BenefitPolicy::kItemsOverLatency, "items/latency"},
      {BenefitPolicy::kProcessingTimeSaved, "processing-time-saved"},
      {BenefitPolicy::kUnit, "unit"},
      {BenefitPolicy::kInverseLatency, "1/latency"},
  };
  for (const auto& c : kCases) {
    const auto fn = make_benefit(c.policy);
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn->name(), c.name);
  }
  core::ResultInfo info;
  EXPECT_DOUBLE_EQ(make_benefit(BenefitPolicy::kUnit)->benefit(info), 1.0);
}

TEST(DispatchSearch, EveryStrategyFindsReachableContent) {
  // Line overlay 0 -> 1 -> 2 -> 3 with content at node 2.
  const std::vector<std::vector<net::NodeId>> adj = {{1}, {2}, {3}, {}};
  auto neighbors = [&](net::NodeId n) -> const std::vector<net::NodeId>& {
    return adj[n];
  };
  auto has_content = [](net::NodeId n) { return n == 2; };
  auto delay = [](net::NodeId, net::NodeId) { return 0.1; };

  core::SearchParams params;
  params.max_hops = 3;
  core::StatsStore stats;
  core::VisitStamp stamps(4);
  core::VisitStamp hit_stamps(4);
  core::SearchScratch scratch;
  auto ctx = core::make_search_context(0, neighbors, has_content, delay,
                                       core::ReliableTransmit{}, stamps,
                                       hit_stamps, scratch);
  ctx.stats = &stats;

  for (auto kind :
       {SearchStrategyKind::kFlood, SearchStrategyKind::kIterativeDeepening,
        SearchStrategyKind::kDirectedBft, SearchStrategyKind::kLocalIndices}) {
    const auto out = dispatch_search(kind, core::QuerySpec::exact(params),
                                     /*directed_fanout=*/2, ctx);
    EXPECT_TRUE(out.satisfied()) << "strategy " << to_string(kind);
    EXPECT_GT(out.query_messages, 0u);
  }
}

TEST(DispatchSearch, IterativeDeepeningAccumulatesCycleCost) {
  const std::vector<std::vector<net::NodeId>> adj = {{1}, {2}, {3}, {}};
  auto neighbors = [&](net::NodeId n) -> const std::vector<net::NodeId>& {
    return adj[n];
  };
  auto has_content = [](net::NodeId n) { return n == 3; };
  auto delay = [](net::NodeId, net::NodeId) { return 0.1; };

  core::SearchParams params;
  params.max_hops = 3;
  core::StatsStore stats;
  core::VisitStamp stamps(4);
  core::VisitStamp hit_stamps(4);
  core::SearchScratch scratch;
  auto ctx = core::make_search_context(0, neighbors, has_content, delay,
                                       core::ReliableTransmit{}, stamps,
                                       hit_stamps, scratch);
  ctx.stats = &stats;
  const core::QuerySpec spec = core::QuerySpec::exact(params);

  const auto flood =
      dispatch_search(SearchStrategyKind::kFlood, spec, 2, ctx);
  const auto iter =
      dispatch_search(SearchStrategyKind::kIterativeDeepening, spec, 2, ctx);
  // Deepening repeats shallow cycles before the hit at depth 3, so its
  // accumulated message cost exceeds one full flood.
  EXPECT_GT(iter.query_messages, flood.query_messages);
  EXPECT_TRUE(iter.satisfied());
}

TEST(DispatchSearch, RankedSchemesRouteThroughTheContextBindings) {
  // Star hub 0 with three leaves; leaves 1 and 3 score, 2 does not.
  const std::vector<std::vector<net::NodeId>> adj = {{1, 2, 3}, {0}, {0}, {0}};
  auto neighbors = [&](net::NodeId n) -> const std::vector<net::NodeId>& {
    return adj[n];
  };
  auto has_content = [](net::NodeId n) { return n == 1 || n == 3; };
  auto rank = [](net::NodeId n) { return n == 1 ? 0.9 : n == 3 ? 0.4 : 0.0; };
  auto candidate = [](net::NodeId n) { return n == 1 || n == 3; };
  auto delay = [](net::NodeId, net::NodeId) { return 0.1; };

  core::SearchParams params;
  params.max_hops = 1;
  core::VisitStamp stamps(4);
  core::VisitStamp hit_stamps(4);
  core::SearchScratch scratch;
  auto ctx = core::make_ranked_context(0, neighbors, has_content, rank,
                                       candidate, delay,
                                       core::ReliableTransmit{}, stamps,
                                       hit_stamps, scratch);

  const auto spec = core::QuerySpec::top_k(params, 1);
  const auto top = dispatch_search(SearchStrategyKind::kTopK, spec, 2, ctx);
  ASSERT_EQ(top.hits.size(), 1u);
  EXPECT_EQ(top.hits[0].node, 1u);
  EXPECT_DOUBLE_EQ(top.hits[0].score, 0.9);
  EXPECT_EQ(top.k_target, 1u);
  EXPECT_TRUE(top.k_satisfied());
  // The unscored leaf's last-hop forward was withheld.
  EXPECT_EQ(top.pruned_subtrees, 1u);

  const auto sim_spec = core::QuerySpec::similar(params, 0.5);
  const auto similar =
      dispatch_search(SearchStrategyKind::kLsh, sim_spec, 2, ctx);
  // Both candidates are visited; only the one clearing the threshold
  // (rank doubles as the similarity estimate here) replies.
  ASSERT_EQ(similar.hits.size(), 1u);
  EXPECT_EQ(similar.hits[0].node, 1u);
  EXPECT_GE(similar.hits[0].score, 0.5);
}

TEST(SearchStrategyKind, ParseAndPrintRoundTrip) {
  for (auto kind :
       {SearchStrategyKind::kFlood, SearchStrategyKind::kIterativeDeepening,
        SearchStrategyKind::kDirectedBft, SearchStrategyKind::kLocalIndices,
        SearchStrategyKind::kTopK, SearchStrategyKind::kLsh}) {
    EXPECT_EQ(parse_search_strategy(to_string(kind)), kind);
  }
  EXPECT_THROW(parse_search_strategy("gossip"), std::invalid_argument);
  EXPECT_THROW(parse_search_strategy(""), std::invalid_argument);
}

TEST(SearchStrategyKind, QueryClassAndSpecFactoriesAgree) {
  core::SearchParams params;
  params.max_hops = 2;

  EXPECT_EQ(query_class_of(SearchStrategyKind::kFlood),
            core::QueryClass::kExactMatch);
  EXPECT_EQ(query_class_of(SearchStrategyKind::kDirectedBft),
            core::QueryClass::kExactMatch);
  EXPECT_EQ(query_class_of(SearchStrategyKind::kTopK),
            core::QueryClass::kTopKRanked);
  EXPECT_EQ(query_class_of(SearchStrategyKind::kLsh),
            core::QueryClass::kSimilarity);

  const auto exact = query_spec_for(SearchStrategyKind::kFlood, params, 7, 0.9);
  EXPECT_EQ(exact.query_class, core::QueryClass::kExactMatch);
  const auto ranked = query_spec_for(SearchStrategyKind::kTopK, params, 7, 0.9);
  EXPECT_EQ(ranked.query_class, core::QueryClass::kTopKRanked);
  EXPECT_EQ(ranked.k, 7u);
  const auto similar = query_spec_for(SearchStrategyKind::kLsh, params, 7, 0.9);
  EXPECT_EQ(similar.query_class, core::QueryClass::kSimilarity);
  EXPECT_DOUBLE_EQ(similar.sim_threshold, 0.9);
  EXPECT_EQ(similar.params.max_hops, 2);
}

TEST(OverlayEngine, EngineConfigIsPreserved) {
  auto cfg = small_config();
  TestEngine e(cfg);
  EXPECT_EQ(e.engine_config().name, "test");
  EXPECT_EQ(e.num_nodes(), 8u);
  EXPECT_DOUBLE_EQ(e.horizon_s(), 36.0);
  EXPECT_DOUBLE_EQ(e.warmup_s(), 0.0);
}

}  // namespace
}  // namespace dsf::sim
