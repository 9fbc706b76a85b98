// Seeded-violation tests: every invariant class the checker claims to
// enforce is broken on purpose — hand-crafted bad records, corrupted
// overlays, tampered ledgers — and the checker must catch each one.  A
// checker that silently misses a violation class is worse than none.
#include "sim/invariants.h"

#include <gtest/gtest.h>

#include <string>

#include "core/relations.h"
#include "obs/record.h"
#include "sim/engine.h"

namespace dsf::sim {
namespace {

/// One engine-shaped record: a single copy of a 10-byte transmission.
obs::Record event(obs::RecordKind kind, net::NodeId from, net::NodeId to,
                  net::MessageType type, int ttl = -1, double t = 1.0) {
  obs::Record r;
  r.kind = kind;
  r.time_s = t;
  r.from = from;
  r.to = to;
  r.type = static_cast<std::uint8_t>(type);
  r.a = obs::Record::pack_wire(10, false);
  r.b = 1;
  r.ttl = static_cast<std::int16_t>(ttl);
  return r;
}

bool has_violation(const InvariantChecker& c, const std::string& invariant) {
  for (const auto& v : c.violations())
    if (v.invariant == invariant) return true;
  return false;
}

// --- conservation --------------------------------------------------------

TEST(InvariantChecker, CleanSendDeliverCycleIsOk) {
  InvariantChecker c;
  c.record(event(obs::RecordKind::kSend, 0, 1, net::MessageType::kPing));
  c.record(event(obs::RecordKind::kRecv, 0, 1, net::MessageType::kPing));
  EXPECT_TRUE(c.ok()) << c.report();
  EXPECT_EQ(c.sent(net::MessageType::kPing), 1u);
  EXPECT_EQ(c.delivered(net::MessageType::kPing), 1u);
  EXPECT_EQ(c.in_flight(net::MessageType::kPing), 0);
}

TEST(InvariantChecker, DeliverWithoutSendViolatesConservation) {
  InvariantChecker c;
  c.record(event(obs::RecordKind::kRecv, 0, 1, net::MessageType::kQuery));
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_violation(c, "conservation"));
  EXPECT_EQ(c.in_flight(net::MessageType::kQuery), -1);
}

TEST(InvariantChecker, DoubleDeliveryOfOneSendViolatesConservation) {
  InvariantChecker c;
  c.record(event(obs::RecordKind::kSend, 0, 1, net::MessageType::kQuery));
  c.record(event(obs::RecordKind::kRecv, 0, 1, net::MessageType::kQuery));
  EXPECT_TRUE(c.ok());
  c.record(event(obs::RecordKind::kRecv, 0, 1, net::MessageType::kQuery));
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_violation(c, "conservation"));
}

TEST(InvariantChecker, DropPastSentCountViolatesConservation) {
  InvariantChecker c;
  c.record(event(obs::RecordKind::kSend, 0, 1, net::MessageType::kEviction));
  c.record(event(obs::RecordKind::kDrop, 0, 1, net::MessageType::kEviction));
  EXPECT_TRUE(c.ok());
  c.record(event(obs::RecordKind::kDrop, 0, 1, net::MessageType::kEviction));
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_violation(c, "conservation"));
}

// --- copies and abuse attribution ---------------------------------------

TEST(InvariantChecker, DuplicatedRecordCountsTwoCopiesAndTwoEvents) {
  InvariantChecker c;
  obs::Record send = event(obs::RecordKind::kSend, 0, 1,
                           net::MessageType::kPing);
  send.b = 2;  // a duplicated transmission: one record, two copies
  c.record(send);
  EXPECT_EQ(c.sent(net::MessageType::kPing), 2u);
  EXPECT_EQ(c.events_seen(), 2u);
  obs::Record recv = event(obs::RecordKind::kRecv, 0, 1,
                           net::MessageType::kPing);
  recv.b = 2;
  c.record(recv);
  EXPECT_EQ(c.delivered(net::MessageType::kPing), 2u);
  EXPECT_EQ(c.in_flight(net::MessageType::kPing), 0);
  EXPECT_EQ(c.events_seen(), 4u);
  EXPECT_TRUE(c.ok()) << c.report();
}

TEST(InvariantChecker, AbuseTaggedRecordsLandInTheAbuseCounters) {
  const auto abusive = [](obs::RecordKind kind) {
    obs::Record r = event(kind, 0, 1, net::MessageType::kQuery);
    r.a = obs::Record::pack_wire(82, true);
    return r;
  };
  InvariantChecker c;
  c.record(abusive(obs::RecordKind::kSend));
  c.record(abusive(obs::RecordKind::kSend));
  c.record(abusive(obs::RecordKind::kRecv));
  c.record(abusive(obs::RecordKind::kDrop));
  c.record(event(obs::RecordKind::kSend, 2, 3, net::MessageType::kQuery));
  EXPECT_EQ(c.abuse_sent(net::MessageType::kQuery), 2u);
  EXPECT_EQ(c.abuse_delivered(net::MessageType::kQuery), 1u);
  EXPECT_EQ(c.abuse_dropped(net::MessageType::kQuery), 1u);
  EXPECT_EQ(c.sent(net::MessageType::kQuery), 3u);

  // The tagged fates reconcile against an abuse ledger holding the same.
  MessageLedger abuse, total;
  abuse.count(net::MessageType::kQuery, 2);
  abuse.count_delivered(net::MessageType::kQuery);
  abuse.count_dropped(net::MessageType::kQuery);
  total.count(net::MessageType::kQuery, 3);
  total.count_delivered(net::MessageType::kQuery);
  total.count_dropped(net::MessageType::kQuery);
  AdversaryStats stats;
  stats.abusers = 1;
  stats.abuse_queries = 1;
  c.check_abuse(stats, abuse, total);
  EXPECT_TRUE(c.ok()) << c.report();
}

// --- TTL monotonicity ----------------------------------------------------

TEST(InvariantChecker, TtlAboveSearchBudgetIsCaught) {
  InvariantChecker c;
  c.on_search_begin(3);
  c.record(event(obs::RecordKind::kSend, 0, 1, net::MessageType::kQuery, 4));
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_violation(c, "ttl"));
}

TEST(InvariantChecker, TtlBelowOneIsCaught) {
  InvariantChecker c;
  c.on_search_begin(3);
  c.record(event(obs::RecordKind::kSend, 0, 1, net::MessageType::kQuery, 0));
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_violation(c, "ttl"));
}

TEST(InvariantChecker, TtlIncreaseWithinOneSearchIsCaught) {
  InvariantChecker c;
  c.on_search_begin(3);
  c.record(event(obs::RecordKind::kSend, 0, 1, net::MessageType::kQuery, 3));
  c.record(event(obs::RecordKind::kSend, 1, 2, net::MessageType::kQuery, 2));
  EXPECT_TRUE(c.ok());
  c.record(event(obs::RecordKind::kSend, 2, 3, net::MessageType::kQuery, 3));
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_violation(c, "ttl"));
}

TEST(InvariantChecker, NewSearchResetsTheTtlContext) {
  InvariantChecker c;
  c.on_search_begin(2);
  c.record(event(obs::RecordKind::kSend, 0, 1, net::MessageType::kQuery, 2));
  c.record(event(obs::RecordKind::kSend, 1, 2, net::MessageType::kQuery, 1));
  c.on_search_begin(2);  // next search may start at the full budget again
  c.record(event(obs::RecordKind::kSend, 3, 4, net::MessageType::kQuery, 2));
  EXPECT_TRUE(c.ok()) << c.report();
}

TEST(InvariantChecker, NonQueryTypesCarryNoTtlObligation) {
  InvariantChecker c;
  c.on_search_begin(2);
  // Replies and control traffic are sent with ttl = -1; never checked.
  c.record(event(obs::RecordKind::kSend, 0, 1, net::MessageType::kQueryReply));
  c.record(event(obs::RecordKind::kSend, 0, 1, net::MessageType::kPing));
  EXPECT_TRUE(c.ok()) << c.report();
}

// --- dead deliveries -----------------------------------------------------

TEST(InvariantChecker, DeliveryToCrashedPeerIsCaught) {
  InvariantChecker c;
  c.record(event(obs::RecordKind::kPeerCrash, 5, net::kInvalidNode,
                 net::MessageType::kQuery));
  EXPECT_EQ(c.crashes_seen(), 1u);
  c.record(event(obs::RecordKind::kSend, 0, 5, net::MessageType::kQuery, 1));
  EXPECT_TRUE(c.ok()) << "sending toward a dead peer is legal";
  c.record(event(obs::RecordKind::kRecv, 0, 5, net::MessageType::kQuery));
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_violation(c, "dead-delivery"));
}

TEST(InvariantChecker, DropAtCrashedPeerIsTheLegalFate) {
  InvariantChecker c;
  c.record(event(obs::RecordKind::kPeerCrash, 5, net::kInvalidNode,
                 net::MessageType::kQuery));
  c.record(event(obs::RecordKind::kSend, 0, 5, net::MessageType::kQuery, 1));
  c.record(event(obs::RecordKind::kDrop, 0, 5, net::MessageType::kQuery));
  EXPECT_TRUE(c.ok()) << c.report();
}

// --- overlay sanity ------------------------------------------------------

TEST(InvariantChecker, AdjacencySelfLoopIsCaught) {
  InvariantChecker c;
  c.check_adjacency(3, std::vector<net::NodeId>{3}, {}, 8);
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_violation(c, "overlay"));
}

TEST(InvariantChecker, AdjacencyDuplicateEntryIsCaught) {
  InvariantChecker c;
  c.check_adjacency(0, std::vector<net::NodeId>{1, 2, 1}, {}, 8);
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_violation(c, "overlay"));
}

TEST(InvariantChecker, AdjacencyOutOfRangeIdIsCaught) {
  InvariantChecker c;
  c.check_adjacency(0, std::vector<net::NodeId>{1},
                    std::vector<net::NodeId>{42}, 8);
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_violation(c, "overlay"));
}

TEST(InvariantChecker, CleanOverlayPasses) {
  core::NeighborTable table(4, core::RelationKind::kAsymmetric, 2, 4);
  table.link(0, 1);
  table.link(1, 2);
  table.link(2, 0);
  InvariantChecker c;
  c.check_overlay(table);
  EXPECT_TRUE(c.ok()) << c.report();
}

TEST(InvariantChecker, SeededSelfLoopInOverlayIsCaught) {
  core::NeighborTable table(4, core::RelationKind::kAsymmetric, 2, 4);
  table.link(0, 1);
  // Corrupt the raw lists directly — link() itself refuses self-loops.
  table.lists(2).add_out(2);
  InvariantChecker c;
  c.check_overlay(table);
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_violation(c, "overlay"));
}

TEST(InvariantChecker, OneSidedLinkViolatesConsistency) {
  core::NeighborTable table(4, core::RelationKind::kAsymmetric, 2, 4);
  // An outgoing entry with no matching incoming entry breaks the §3.1
  // agreement that both sides of a link record it.
  table.lists(0).add_out(1);
  InvariantChecker c;
  c.check_overlay(table);
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_violation(c, "overlay"));
}

// --- ledger reconciliation -----------------------------------------------

TEST(InvariantChecker, MatchingLedgerReconciles) {
  InvariantChecker c;
  c.record(event(obs::RecordKind::kSend, 0, 1, net::MessageType::kQuery, 1));
  c.record(event(obs::RecordKind::kRecv, 0, 1, net::MessageType::kQuery));
  MessageLedger ledger;
  ledger.count(net::MessageType::kQuery);
  ledger.count_delivered(net::MessageType::kQuery);
  c.check_ledger(ledger, {net::MessageType::kQuery});
  EXPECT_TRUE(c.ok()) << c.report();
}

TEST(InvariantChecker, TamperedDeliveredCounterIsCaught) {
  InvariantChecker c;
  c.record(event(obs::RecordKind::kSend, 0, 1, net::MessageType::kQuery, 1));
  c.record(event(obs::RecordKind::kRecv, 0, 1, net::MessageType::kQuery));
  MessageLedger ledger;
  ledger.count(net::MessageType::kQuery);
  ledger.count_delivered(net::MessageType::kQuery);
  ledger.count_delivered(net::MessageType::kQuery);  // the tamper
  c.check_ledger(ledger);
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_violation(c, "ledger"));
}

TEST(InvariantChecker, TamperedDroppedCounterIsCaught) {
  InvariantChecker c;
  c.record(event(obs::RecordKind::kSend, 0, 1, net::MessageType::kPing, -1));
  c.record(event(obs::RecordKind::kDrop, 0, 1, net::MessageType::kPing));
  MessageLedger ledger;
  ledger.count(net::MessageType::kPing);
  // The tamper: the ledger claims no drop happened.
  c.check_ledger(ledger);
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_violation(c, "ledger"));
}

TEST(InvariantChecker, SentMismatchCaughtOnlyForExactTypes) {
  InvariantChecker c;
  c.record(event(obs::RecordKind::kSend, 0, 1, net::MessageType::kQuery, 1));
  c.record(event(obs::RecordKind::kRecv, 0, 1, net::MessageType::kQuery));
  MessageLedger ledger;
  ledger.count(net::MessageType::kQuery, 5);  // bulk count: 4 untraced
  ledger.count_delivered(net::MessageType::kQuery);

  InvariantChecker lenient = c;
  lenient.check_ledger(ledger);  // no exact types: bulk counting is fine
  EXPECT_TRUE(lenient.ok()) << lenient.report();

  c.check_ledger(ledger, {net::MessageType::kQuery});
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_violation(c, "ledger"));
}

// --- admission conservation ----------------------------------------------

TEST(InvariantChecker, CleanAdmissionAccountingPasses) {
  load::LoadStats s;
  s.offered = 100;
  s.admitted = 80;
  s.rejected = 20;
  s.completed = 70;
  s.shed = 4;
  s.pending = 6;
  s.hits = 33;
  InvariantChecker c;
  c.check_admission(s);
  EXPECT_TRUE(c.ok()) << c.report();
}

TEST(InvariantChecker, LostArrivalViolatesAdmissionConservation) {
  load::LoadStats s;
  s.offered = 100;
  s.admitted = 80;
  s.rejected = 19;  // one arrival vanished between admission and rejection
  s.completed = 80;
  InvariantChecker c;
  c.check_admission(s);
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_violation(c, "admission"));
}

TEST(InvariantChecker, LeakedAdmittedQueryIsCaught) {
  load::LoadStats s;
  s.offered = 50;
  s.admitted = 50;
  s.completed = 40;
  s.shed = 2;
  s.pending = 7;  // 40 + 2 + 7 != 50: one admitted query leaked
  InvariantChecker c;
  c.check_admission(s);
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_violation(c, "admission"));
}

TEST(InvariantChecker, MoreHitsThanCompletionsIsCaught) {
  load::LoadStats s;
  s.offered = 10;
  s.admitted = 10;
  s.completed = 10;
  s.hits = 11;
  InvariantChecker c;
  c.check_admission(s);
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_violation(c, "admission"));
}

TEST(InvariantChecker, AllZeroLoadStatsAreVacuouslyClean) {
  // Closed-loop runs call check_admission unconditionally; a disabled
  // layer reports all-zero stats and must not trip anything.
  InvariantChecker c;
  c.check_admission(load::LoadStats{});
  EXPECT_TRUE(c.ok()) << c.report();
}

// --- scheme (ranked query plane outcome contracts) ------------------------

core::SearchHit hit(net::NodeId node, double score) {
  core::SearchHit h;
  h.node = node;
  h.hop = 1;
  h.arrival_s = 1.0;
  h.reply_at_s = 2.0;
  h.score = score;
  return h;
}

TEST(InvariantChecker, ExactMatchOutcomeWithPruningIsCaught) {
  InvariantChecker c;
  core::SearchParams p;
  core::SearchOutcome out;
  out.pruned_subtrees = 3;  // nothing bounds a flood
  c.check_search_outcome(core::QuerySpec::exact(p), out);
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_violation(c, "scheme"));
}

TEST(InvariantChecker, ExactMatchHitCarryingAScoreIsCaught) {
  InvariantChecker c;
  core::SearchParams p;
  core::SearchOutcome out;
  out.hits.push_back(hit(4, 0.7));
  c.check_search_outcome(core::QuerySpec::exact(p), out);
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_violation(c, "scheme"));
}

TEST(InvariantChecker, TopKOverflowIsCaught) {
  InvariantChecker c;
  core::SearchParams p;
  core::SearchOutcome out;
  out.hits.push_back(hit(1, 0.9));
  out.hits.push_back(hit(2, 0.8));
  out.hits.push_back(hit(3, 0.7));
  c.check_search_outcome(core::QuerySpec::top_k(p, 2), out);
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_violation(c, "scheme"));
}

TEST(InvariantChecker, RankedHitWithNonPositiveScoreIsCaught) {
  InvariantChecker c;
  core::SearchParams p;
  core::SearchOutcome out;
  out.hits.push_back(hit(1, 0.0));
  c.check_search_outcome(core::QuerySpec::top_k(p, 2), out);
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_violation(c, "scheme"));
}

TEST(InvariantChecker, RankedHitsOutOfScoreOrderAreCaught) {
  InvariantChecker c;
  core::SearchParams p;
  core::SearchOutcome out;
  out.hits.push_back(hit(1, 0.3));
  out.hits.push_back(hit(2, 0.8));  // ascending: the sort contract broke
  c.check_search_outcome(core::QuerySpec::top_k(p, 2), out);
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_violation(c, "scheme"));
}

TEST(InvariantChecker, SubThresholdSimilarityHitIsCaught) {
  InvariantChecker c;
  core::SearchParams p;
  core::SearchOutcome out;
  out.hits.push_back(hit(1, 0.3));
  c.check_search_outcome(core::QuerySpec::similar(p, 0.5), out);
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_violation(c, "scheme"));
}

TEST(InvariantChecker, WellFormedOutcomesOfEveryClassAreClean) {
  InvariantChecker c;
  core::SearchParams p;

  core::SearchOutcome exact;
  exact.hits.push_back(hit(1, 0.0));
  c.check_search_outcome(core::QuerySpec::exact(p), exact);

  core::SearchOutcome ranked;
  ranked.hits.push_back(hit(1, 0.9));
  ranked.hits.push_back(hit(2, 0.4));
  ranked.pruned_subtrees = 7;  // ranked schemes are allowed to prune
  c.check_search_outcome(core::QuerySpec::top_k(p, 2), ranked);

  core::SearchOutcome similar;
  similar.hits.push_back(hit(1, 0.6));
  c.check_search_outcome(core::QuerySpec::similar(p, 0.5), similar);

  EXPECT_TRUE(c.ok()) << c.report();
}

// --- reporting and the recording cap -------------------------------------

TEST(InvariantChecker, ViolationCapCountsExactly) {
  InvariantChecker c;
  const int n = 100;  // > kMaxRecorded
  for (int i = 0; i < n; ++i)
    c.record(event(obs::RecordKind::kRecv, 0, 1, net::MessageType::kQuery));
  EXPECT_EQ(c.total_violations(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(c.violations().size(), InvariantChecker::kMaxRecorded);
  const auto report = c.report();
  EXPECT_NE(report.find("100"), std::string::npos);
  EXPECT_NE(report.find("suppressed"), std::string::npos);
}

TEST(InvariantChecker, ReportNamesTheInvariantAndDetail) {
  InvariantChecker c;
  c.on_search_begin(2);
  c.record(event(obs::RecordKind::kSend, 0, 1, net::MessageType::kQuery, 7));
  const auto report = c.report();
  EXPECT_NE(report.find("[ttl]"), std::string::npos) << report;
  EXPECT_NE(report.find("outside [1, 2]"), std::string::npos) << report;

  InvariantChecker clean;
  EXPECT_NE(clean.report().find("invariant violations: 0"),
            std::string::npos);
}

}  // namespace
}  // namespace dsf::sim
