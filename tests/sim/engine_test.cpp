#include "sim/engine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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

  using OverlayEngine::default_bootstrap_attempts;
  using OverlayEngine::engine_config;
  using OverlayEngine::every;
  using OverlayEngine::fill_random_neighbors;
  using OverlayEngine::horizon_s;
  using OverlayEngine::query_rng;
  using OverlayEngine::reporting;
  using OverlayEngine::rng;
  using OverlayEngine::run_until_horizon;
  using OverlayEngine::sample_delay_s;
  using OverlayEngine::send;
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
  ledger.count(net::MessageType::kPong);

  EXPECT_EQ(ledger.stats().total(net::MessageType::kQuery), 3u);
  EXPECT_EQ(ledger.bytes(net::MessageType::kQuery),
            3 * default_message_bytes(net::MessageType::kQuery));
  EXPECT_EQ(ledger.bytes(net::MessageType::kPong),
            default_message_bytes(net::MessageType::kPong));
  EXPECT_EQ(ledger.total_bytes(),
            3 * default_message_bytes(net::MessageType::kQuery) +
                default_message_bytes(net::MessageType::kPong));
  EXPECT_EQ(ledger.stats().total(), 4u);
}

TEST(DefaultMessageBytes, EveryTypeHasAPositiveWireSize) {
  for (int i = 0; i < net::kNumMessageTypes; ++i)
    EXPECT_GT(default_message_bytes(static_cast<net::MessageType>(i)), 0u)
        << "type " << i;
}

TEST(OverlayEngine, SendAccountsTracesAndDelivers) {
  // A synchronous exchange: send() counts the copy, resolves its fate
  // and emits the send and receive records.
  TestEngine e(small_config());
  obs::RingSink ring;
  e.set_trace_sink(&ring);
  e.simulator().run_until(5.0);  // records carry the clock

  const auto res = e.send(net::MessageType::kQuery, 0, 1, 2);

  EXPECT_TRUE(res.deliver);
  EXPECT_FALSE(res.duplicate);
  EXPECT_DOUBLE_EQ(res.extra_delay_s, 0.0);
  EXPECT_EQ(e.traffic().total(net::MessageType::kQuery), 1u);
  EXPECT_EQ(e.ledger().bytes(net::MessageType::kQuery),
            default_message_bytes(net::MessageType::kQuery));
  EXPECT_EQ(e.ledger().delivered(net::MessageType::kQuery), 1u);
  EXPECT_EQ(e.ledger().dropped(net::MessageType::kQuery), 0u);
  const auto trace = ring.snapshot();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].kind, obs::RecordKind::kSend);
  EXPECT_EQ(trace[1].kind, obs::RecordKind::kRecv);  // the copy's fate
  for (const obs::Record& r : trace) {
    EXPECT_EQ(r.time_s, 5.0);
    EXPECT_EQ(r.from, 0u);
    EXPECT_EQ(r.to, 1u);
    EXPECT_EQ(r.type, static_cast<std::uint8_t>(net::MessageType::kQuery));
    EXPECT_EQ(r.unpack_bytes(),
              default_message_bytes(net::MessageType::kQuery));
    EXPECT_FALSE(r.unpack_abuse());
    EXPECT_EQ(r.b, 1u);    // one copy
    EXPECT_EQ(r.ttl, 2);  // the hop budget the exchange passed
  }
  EXPECT_TRUE(e.simulator().queue().empty());  // nothing was scheduled

  // A forced duplicate: one send() counts both copies, and one send and
  // one receive record each stand for the two.
  FaultPlan plan;
  FaultRule dup;
  dup.duplicate_prob = 1.0;
  plan.set_rule(net::MessageType::kInvitation, dup);
  e.set_fault_plan(plan);
  const auto twice = e.send(net::MessageType::kInvitation, 2, 3, -1);
  EXPECT_TRUE(twice.deliver);
  EXPECT_TRUE(twice.duplicate);
  EXPECT_EQ(e.traffic().total(net::MessageType::kInvitation), 2u);
  EXPECT_EQ(e.ledger().bytes(net::MessageType::kInvitation),
            2 * default_message_bytes(net::MessageType::kInvitation));
  EXPECT_EQ(e.ledger().delivered(net::MessageType::kInvitation), 2u);
  const auto dup_trace = ring.snapshot();
  ASSERT_EQ(dup_trace.size(), 4u);
  EXPECT_EQ(dup_trace[2].kind, obs::RecordKind::kSend);
  EXPECT_EQ(dup_trace[3].kind, obs::RecordKind::kRecv);
  EXPECT_EQ(dup_trace[2].b, 2u);
  EXPECT_EQ(dup_trace[3].b, 2u);
  EXPECT_EQ(dup_trace[2].ttl, -1);  // not a query: no hop budget
}

TEST(OverlayEngine, ScheduleEveryFiresAtFirstDelayThenEveryPeriod) {
  TestEngine e(small_config());
  std::vector<double> fire_times;
  int first_delay_calls = 0;
  e.every(
      2.0,
      [&] {
        ++first_delay_calls;
        return 1.0;
      },
      [&] { fire_times.push_back(e.simulator().now()); });
  EXPECT_EQ(first_delay_calls, 1);
  e.simulator().run_until(6.0);
  EXPECT_EQ(first_delay_calls, 1) << "later ticks use the period";
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
      [&](net::NodeId v) {
        ++links;
        EXPECT_TRUE(e.overlay().lists(0).has_out(v)) << v;
      });
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
      [](net::NodeId) { FAIL() << "no link should form"; });
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
      [] { return static_cast<net::NodeId>(0); }, [](net::NodeId) {});
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

TEST(DispatchSearch, EveryStrategyFindsReachableContent) {
  // Line overlay 0 -> 1 -> 2 -> 3 with content at node 2.
  const std::vector<std::vector<net::NodeId>> adj = {{1}, {2}, {3}, {}};
  auto neighbors = [&](net::NodeId n) -> const std::vector<net::NodeId>& {
    return adj[n];
  };
  auto has_content = [](net::NodeId n) { return n == 2; };
  auto delay = [](net::NodeId, net::NodeId) { return 0.1; };

  auto no_rank = [](net::NodeId) { return 0.0; };

  core::SearchParams params;
  params.max_hops = 3;
  core::StatsStore stats;
  core::VisitStamp stamps(4);
  core::VisitStamp hit_stamps(4);
  core::SearchScratch scratch;
  SearchContext ctx{0u, neighbors, has_content, no_rank, delay,
                    core::ReliableTransmit{}, &stats, &stamps, &hit_stamps,
                    &scratch};

  for (auto kind :
       {SearchStrategyKind::kFlood, SearchStrategyKind::kIterativeDeepening,
        SearchStrategyKind::kDirectedBft, SearchStrategyKind::kLocalIndices}) {
    const auto out = dispatch_search(kind, params, /*k=*/0,
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

  auto no_rank = [](net::NodeId) { return 0.0; };

  core::SearchParams params;
  params.max_hops = 3;
  core::StatsStore stats;
  core::VisitStamp stamps(4);
  core::VisitStamp hit_stamps(4);
  core::SearchScratch scratch;
  SearchContext ctx{0u, neighbors, has_content, no_rank, delay,
                    core::ReliableTransmit{}, &stats, &stamps, &hit_stamps,
                    &scratch};

  const auto flood =
      dispatch_search(SearchStrategyKind::kFlood, params, 0, 2, ctx);
  const auto iter = dispatch_search(SearchStrategyKind::kIterativeDeepening,
                                    params, 0, 2, ctx);
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
  auto delay = [](net::NodeId, net::NodeId) { return 0.1; };

  core::SearchParams params;
  params.max_hops = 1;
  core::StatsStore stats;
  core::VisitStamp stamps(4);
  core::VisitStamp hit_stamps(4);
  core::SearchScratch scratch;
  SearchContext ctx{0u, neighbors, has_content, rank, delay,
                    core::ReliableTransmit{}, &stats, &stamps, &hit_stamps,
                    &scratch};

  const auto top =
      dispatch_search(SearchStrategyKind::kTopK, params, /*k=*/1, 2, ctx);
  ASSERT_EQ(top.hits.size(), 1u);
  EXPECT_EQ(top.hits[0].node, 1u);
  EXPECT_DOUBLE_EQ(top.hits[0].score, 0.9);
  EXPECT_EQ(top.k_target, 1u);
  EXPECT_TRUE(top.k_satisfied());
  // The unscored leaf's last-hop forward was withheld.
  EXPECT_EQ(top.pruned_subtrees, 1u);
}

TEST(SearchStrategyKind, ParseAndPrintRoundTrip) {
  for (auto kind :
       {SearchStrategyKind::kFlood, SearchStrategyKind::kIterativeDeepening,
        SearchStrategyKind::kDirectedBft, SearchStrategyKind::kLocalIndices,
        SearchStrategyKind::kTopK}) {
    EXPECT_EQ(parse_search_strategy(to_string(kind)), kind);
  }
  EXPECT_THROW(parse_search_strategy("gossip"), std::invalid_argument);
  // A command line naming the removed similarity scheme must fail, not
  // run as some other scheme.
  EXPECT_THROW(parse_search_strategy("lsh"), std::invalid_argument);
  EXPECT_THROW(parse_search_strategy(""), std::invalid_argument);
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
