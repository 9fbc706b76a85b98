#pragma once

// InvariantChecker: continuous assertions over the overlay engine's trace
// stream, plus end-of-run structural and accounting audits.  Attach one
// via OverlayEngine::attach_checker BEFORE run(); the engine then routes
// every transmission through its traced paths (still zero RNG draws when
// the fault plan is empty) and hands the checker the same obs::Record
// stream the flight recorder sees.  The checker asserts, as records
// arrive:
//
//   * message conservation — per type, delivered + dropped never exceeds
//     sent; at end of run check_ledger() requires the traced sends,
//     deliveries and drops of every type to equal the MessageLedger's;
//   * TTL monotonicity — within one search (begin_faulty_search sets the
//     context), query TTLs stay in [1, max_hops] and never increase in
//     BFS trace order;
//   * no delivery to the dead — a copy addressed to a crashed peer must
//     be dropped, never delivered;
//   * overlay sanity (check_overlay) — no self-loops, no duplicate
//     entries, no out-of-range ids, and out/in agreement per §3.1.
//
// Violations are recorded (capped at kMaxRecorded, counted exactly) and
// summarized by report().  The seeded-violation tests in
// tests/sim/invariant_test.cpp feed the checker hand-crafted bad records
// and tampered ledgers to prove each class is actually detected.

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/flood_search.h"
#include "core/relations.h"
#include "net/message.h"
#include "net/node_id.h"
#include "obs/record.h"
#include "sim/adversary.h"
#include "sim/engine.h"

namespace dsf::sim {

/// One detected violation: which invariant class, when, and what happened.
struct InvariantViolation {
  std::string invariant;  ///< "conservation", "ttl", "dead-delivery",
                          ///< "overlay", "ledger", "admission", "abuse",
                          ///< or "scheme"
  std::string detail;
  double time_s = 0.0;
};

class InvariantChecker {
 public:
  /// Recorded-violation cap; everything past it is counted but not stored.
  static constexpr std::size_t kMaxRecorded = 64;

  /// Resets the TTL context for one search (or one iterative-deepening
  /// cycle) whose queries carry at most `max_ttl` remaining hops.
  void on_search_begin(int max_ttl) noexcept {
    search_max_ttl_ = max_ttl;
    last_query_ttl_ = max_ttl;
  }

  /// Consumes one engine trace record.  A wire record (send, receive,
  /// drop) stands for `r.b` identical copies and counts as that many
  /// events; a crash counts as one.  Span and heartbeat records carry
  /// nothing the checker audits.
  void record(const obs::Record& r) {
    const std::size_t t = r.type;
    const std::uint64_t n = r.b;
    last_time_s_ = r.time_s;
    switch (r.kind) {
      case obs::RecordKind::kSend:
        events_ += n;
        sent_[t] += n;
        if (r.unpack_abuse()) abuse_sent_[t] += n;
        if (t == static_cast<std::size_t>(net::MessageType::kQuery) &&
            r.ttl >= 0 && search_max_ttl_ >= 0)
          check_query_ttl(r);
        break;
      case obs::RecordKind::kRecv:
        events_ += n;
        delivered_[t] += n;
        if (r.unpack_abuse()) abuse_delivered_[t] += n;
        check_conservation(r);
        if (is_dead(r.to))
          violate("dead-delivery",
                  type_name(r) + " delivered to crashed peer " +
                      std::to_string(r.to),
                  r.time_s);
        break;
      case obs::RecordKind::kDrop:
        events_ += n;
        dropped_[t] += n;
        if (r.unpack_abuse()) abuse_dropped_[t] += n;
        check_conservation(r);
        break;
      case obs::RecordKind::kPeerCrash:
        ++events_;
        ++crashes_;
        mark_dead(r.from);
        break;
      case obs::RecordKind::kSearchBegin:
      case obs::RecordKind::kSearchEnd:
      case obs::RecordKind::kHeartbeat:
        break;
    }
  }

  /// Audits one node's raw adjacency lists: self-loops, duplicate entries,
  /// out-of-range ids.  check_overlay calls this per node; tests call it
  /// directly with crafted lists.
  void check_adjacency(net::NodeId node, std::span<const net::NodeId> out,
                       std::span<const net::NodeId> in,
                       std::size_t num_nodes) {
    check_list(node, out, num_nodes, "outgoing");
    check_list(node, in, num_nodes, "incoming");
  }

  /// Audits the whole neighbor table: per-node adjacency sanity plus the
  /// §3.1 consistency requirement (every outgoing entry mirrored by the
  /// target's incoming list).  Dangling entries pointing AT a crashed peer
  /// are legal — both sides of each link still record it — which is
  /// exactly what makes ungraceful crashes interesting.  Templated over
  /// the table type: the reference core::NeighborTable and the compact
  /// million-peer table are audited identically.
  template <typename Table>
  void check_overlay(const Table& table) {
    for (net::NodeId i = 0; i < table.size(); ++i) {
      const auto& l = table.lists(i);
      check_adjacency(i, l.out(), l.in(), table.size());
    }
    if (!table.consistent())
      violate("overlay",
              "neighbor table inconsistent: some outgoing entry has no "
              "matching incoming entry",
              last_time_s_);
  }

  /// Takes `ledger`'s counts as reconciled: a checker attached to a run
  /// resumed from a snapshot audits what is sent after the resume point.
  void start_from(const MessageLedger& ledger) noexcept {
    for (int i = 0; i < net::kNumMessageTypes; ++i) {
      const auto t = static_cast<net::MessageType>(i);
      sent_[i] = ledger.stats().total(t);
      delivered_[i] = ledger.delivered(t);
      dropped_[i] = ledger.dropped(t);
    }
  }

  /// Reconciles the trace against the engine's ledger for every message
  /// type: the traced sends, deliveries and drops must equal the ledger's
  /// sent, delivered and dropped counts (every counted message is
  /// transmitted through the traced paths, and every traced send is
  /// counted).
  void check_ledger(const MessageLedger& ledger) {
    for (int i = 0; i < net::kNumMessageTypes; ++i) {
      const auto t = static_cast<net::MessageType>(i);
      if (delivered_[i] != ledger.delivered(t))
        violate("ledger",
                std::string(net::to_string(t)) + ": traced " +
                    std::to_string(delivered_[i]) +
                    " deliveries but the ledger recorded " +
                    std::to_string(ledger.delivered(t)),
                last_time_s_);
      if (dropped_[i] != ledger.dropped(t))
        violate("ledger",
                std::string(net::to_string(t)) + ": traced " +
                    std::to_string(dropped_[i]) +
                    " drops but the ledger recorded " +
                    std::to_string(ledger.dropped(t)),
                last_time_s_);
      if (delivered_[i] + dropped_[i] > sent_[i])
        violate("conservation",
                std::string(net::to_string(t)) +
                    ": delivered + dropped exceeds sent at end of run",
                last_time_s_);
      if (sent_[i] != ledger.stats().total(t))
        violate("ledger",
                std::string(net::to_string(t)) + ": traced " +
                    std::to_string(sent_[i]) + " sends but the ledger shows " +
                    std::to_string(ledger.stats().total(t)),
                last_time_s_);
    }
  }

  /// Certifies the open-loop admission accounting at end of run: every
  /// offered arrival was either admitted or rejected, and every admitted
  /// query ended the run completed, shed, or still pending.  Call with
  /// OverlayEngine::load_stats() after run (no-op on all-zero stats, so
  /// closed-loop certification paths can call it unconditionally).
  void check_admission(const load::LoadStats& s) {
    if (s.admitted + s.rejected != s.offered)
      violate("admission",
              "offered (" + std::to_string(s.offered) +
                  ") != admitted (" + std::to_string(s.admitted) +
                  ") + rejected (" + std::to_string(s.rejected) + ")",
              last_time_s_);
    if (s.completed + s.shed + s.pending != s.admitted)
      violate("admission",
              "admitted (" + std::to_string(s.admitted) +
                  ") != completed (" + std::to_string(s.completed) +
                  ") + shed (" + std::to_string(s.shed) + ") + pending (" +
                  std::to_string(s.pending) + ")",
              last_time_s_);
    if (s.hits > s.completed)
      violate("admission",
              "hits (" + std::to_string(s.hits) + ") exceed completions (" +
                  std::to_string(s.completed) + ")",
              last_time_s_);
  }

  /// Certifies one search outcome against the `k` it asked for: 0 for the
  /// flood family (exact match, the SearchOutcome::k_target convention),
  /// the result count for top-k.  Exact-match outcomes must carry no
  /// scores and no pruning (nothing prunes a flood); ranked outcomes must
  /// respect the k bound with scores positive and sorted best-first.
  /// OverlayEngine::search calls this per search when a checker is
  /// attached: it is cheap, one pass over the hit list, but per-query.
  void check_search_outcome(std::uint32_t k, const core::SearchOutcome& out) {
    if (k == 0) {
      if (out.pruned_subtrees != 0)
        violate("scheme",
                "exact-match search pruned " +
                    std::to_string(out.pruned_subtrees) +
                    " subtree(s) — nothing bounds a flood",
                last_time_s_);
      for (const core::SearchHit& h : out.hits)
        if (h.score != 0.0) {
          violate("scheme",
                  "exact-match hit at node " + std::to_string(h.node) +
                      " carries score " + std::to_string(h.score),
                  last_time_s_);
          break;
        }
      return;
    }
    if (out.hits.size() > k)
      violate("scheme",
              "top-k outcome returned " + std::to_string(out.hits.size()) +
                  " hits for k = " + std::to_string(k),
              last_time_s_);
    double prev = std::numeric_limits<double>::infinity();
    for (const core::SearchHit& h : out.hits) {
      if (h.score <= 0.0) {
        violate("scheme",
                "ranked hit at node " + std::to_string(h.node) +
                    " has non-positive score " + std::to_string(h.score),
                last_time_s_);
        break;
      }
      if (h.score > prev) {
        violate("scheme",
                "ranked hits out of order: score " + std::to_string(h.score) +
                    " after " + std::to_string(prev),
                last_time_s_);
        break;
      }
      prev = h.score;
    }
  }

  /// Certifies the adversary layer's abuse attribution at end of run:
  /// traced abuse fates reconcile exactly against the abuse ledger (both
  /// are mirrored at the same sites), abuse traffic is conserved within
  /// the blast radius (delivered + dropped never exceeds sent), the
  /// attribution is a subset of the total traffic (per type, counts and
  /// bytes), hits never exceed sprayed queries, and nothing is attributed
  /// when no abuse ran.  No-op-clean on a disabled layer (all-zero stats
  /// and an empty abuse ledger), so certification paths can call it
  /// unconditionally.
  void check_abuse(const AdversaryStats& stats,
                   const MessageLedger& abuse_ledger,
                   const MessageLedger& ledger) {
    for (int i = 0; i < net::kNumMessageTypes; ++i) {
      const auto t = static_cast<net::MessageType>(i);
      if (abuse_delivered_[i] != abuse_ledger.delivered(t))
        violate("abuse",
                std::string(net::to_string(t)) + ": traced " +
                    std::to_string(abuse_delivered_[i]) +
                    " abuse deliveries but the abuse ledger recorded " +
                    std::to_string(abuse_ledger.delivered(t)),
                last_time_s_);
      if (abuse_dropped_[i] != abuse_ledger.dropped(t))
        violate("abuse",
                std::string(net::to_string(t)) + ": traced " +
                    std::to_string(abuse_dropped_[i]) +
                    " abuse drops but the abuse ledger recorded " +
                    std::to_string(abuse_ledger.dropped(t)),
                last_time_s_);
      if (abuse_delivered_[i] + abuse_dropped_[i] > abuse_sent_[i])
        violate("abuse",
                std::string(net::to_string(t)) +
                    ": abuse delivered + dropped exceeds abuse sent",
                last_time_s_);
      if (abuse_sent_[i] > sent_[i])
        violate("abuse",
                std::string(net::to_string(t)) +
                    ": traced abuse sends exceed total sends",
                last_time_s_);
      if (abuse_ledger.stats().total(t) > ledger.stats().total(t))
        violate("abuse",
                std::string(net::to_string(t)) +
                    ": abuse-ledger sends (" +
                    std::to_string(abuse_ledger.stats().total(t)) +
                    ") exceed the run ledger's (" +
                    std::to_string(ledger.stats().total(t)) + ")",
                last_time_s_);
      if (abuse_ledger.bytes(t) > ledger.bytes(t))
        violate("abuse",
                std::string(net::to_string(t)) +
                    ": abuse-ledger bytes exceed the run ledger's",
                last_time_s_);
    }
    if (stats.abuse_hits > stats.abuse_queries)
      violate("abuse",
              "abuse hits (" + std::to_string(stats.abuse_hits) +
                  ") exceed sprayed queries (" +
                  std::to_string(stats.abuse_queries) + ")",
              last_time_s_);
    if (stats.abuse_queries == 0 && stats.abusers == 0 &&
        abuse_ledger.stats().total() != 0)
      violate("abuse",
              "abuse ledger counted " +
                  std::to_string(abuse_ledger.stats().total()) +
                  " message(s) but no abuser ever sprayed",
              last_time_s_);
  }

  /// Audits the designated abusers' overlay entries: per-abuser adjacency
  /// sanity plus a mirror audit — every link an abuser still holds must be
  /// mutually recorded (a dangling out-entry with no matching in-entry at
  /// the target indicates a broken eviction path, not a contained abuser).
  /// Templated like check_overlay so the reference and compact tables are
  /// audited identically.
  template <typename Table>
  void check_abuser_overlay(const Table& table,
                            std::span<const net::NodeId> abusers) {
    for (net::NodeId a : abusers) {
      if (a >= table.size()) {
        violate("abuse",
                "abuser id " + std::to_string(a) + " out of range (" +
                    std::to_string(table.size()) + " peers)",
                last_time_s_);
        continue;
      }
      const auto& l = table.lists(a);
      check_adjacency(a, l.out(), l.in(), table.size());
      for (net::NodeId v : l.out()) {
        if (v >= table.size()) continue;  // reported by check_adjacency
        const auto& lv = table.lists(v);
        bool mirrored = false;
        for (net::NodeId w : lv.in())
          if (w == a) {
            mirrored = true;
            break;
          }
        if (!mirrored)
          violate("abuse",
                  "abuser " + std::to_string(a) + " lists neighbor " +
                      std::to_string(v) +
                      " but is absent from its incoming list (half-evicted "
                      "link)",
                  last_time_s_);
      }
    }
  }

  /// --- counters ---------------------------------------------------------
  std::uint64_t sent(net::MessageType t) const noexcept {
    return sent_[static_cast<std::size_t>(t)];
  }
  std::uint64_t delivered(net::MessageType t) const noexcept {
    return delivered_[static_cast<std::size_t>(t)];
  }
  std::uint64_t dropped(net::MessageType t) const noexcept {
    return dropped_[static_cast<std::size_t>(t)];
  }
  /// Copies sent but not yet resolved (negative only under violation).
  std::int64_t in_flight(net::MessageType t) const noexcept {
    const auto i = static_cast<std::size_t>(t);
    return static_cast<std::int64_t>(sent_[i]) -
           static_cast<std::int64_t>(delivered_[i]) -
           static_cast<std::int64_t>(dropped_[i]);
  }
  std::uint64_t events_seen() const noexcept { return events_; }
  std::uint64_t crashes_seen() const noexcept { return crashes_; }

  /// Abuse-tagged subsets of the traced counters (zero with the layer off).
  std::uint64_t abuse_sent(net::MessageType t) const noexcept {
    return abuse_sent_[static_cast<std::size_t>(t)];
  }
  std::uint64_t abuse_delivered(net::MessageType t) const noexcept {
    return abuse_delivered_[static_cast<std::size_t>(t)];
  }
  std::uint64_t abuse_dropped(net::MessageType t) const noexcept {
    return abuse_dropped_[static_cast<std::size_t>(t)];
  }

  /// --- verdict ----------------------------------------------------------
  bool ok() const noexcept { return total_violations_ == 0; }
  std::uint64_t total_violations() const noexcept { return total_violations_; }
  const std::vector<InvariantViolation>& violations() const noexcept {
    return violations_;
  }

  /// Human-readable summary of everything detected (empty-ish when ok).
  std::string report() const {
    std::string r =
        "invariant violations: " + std::to_string(total_violations_) + "\n";
    for (const auto& v : violations_)
      r += "  [" + v.invariant + "] t=" + std::to_string(v.time_s) + "s " +
           v.detail + "\n";
    if (total_violations_ > violations_.size())
      r += "  ... " +
           std::to_string(total_violations_ - violations_.size()) +
           " more suppressed\n";
    return r;
  }

 private:
  void violate(const char* invariant, std::string detail, double time_s) {
    ++total_violations_;
    if (violations_.size() < kMaxRecorded)
      violations_.push_back({invariant, std::move(detail), time_s});
  }

  static std::string type_name(const obs::Record& r) {
    return std::string(net::to_string(static_cast<net::MessageType>(r.type)));
  }

  void check_conservation(const obs::Record& r) {
    const std::size_t t = r.type;
    if (delivered_[t] + dropped_[t] > sent_[t])
      violate("conservation",
              type_name(r) + ": delivered + dropped exceeds sent (" +
                  std::to_string(delivered_[t]) + " + " +
                  std::to_string(dropped_[t]) + " > " +
                  std::to_string(sent_[t]) + ")",
              r.time_s);
  }

  void check_query_ttl(const obs::Record& r) {
    if (r.ttl < 1 || r.ttl > search_max_ttl_) {
      violate("ttl",
              "query sent with ttl " + std::to_string(r.ttl) +
                  " outside [1, " + std::to_string(search_max_ttl_) + "]",
              r.time_s);
      return;
    }
    if (r.ttl > last_query_ttl_) {
      violate("ttl",
              "query ttl increased from " + std::to_string(last_query_ttl_) +
                  " to " + std::to_string(r.ttl) + " within one search",
              r.time_s);
      return;
    }
    last_query_ttl_ = r.ttl;
  }

  void check_list(net::NodeId node, std::span<const net::NodeId> list,
                  std::size_t num_nodes, const char* which) {
    for (std::size_t a = 0; a < list.size(); ++a) {
      if (list[a] == node)
        violate("overlay",
                "node " + std::to_string(node) + " has a self-loop in its " +
                    which + " list",
                last_time_s_);
      if (list[a] >= num_nodes)
        violate("overlay",
                "node " + std::to_string(node) + " has out-of-range id " +
                    std::to_string(list[a]) + " in its " + which + " list",
                last_time_s_);
      for (std::size_t b = a + 1; b < list.size(); ++b)
        if (list[a] == list[b])
          violate("overlay",
                  "node " + std::to_string(node) + " lists neighbor " +
                      std::to_string(list[a]) + " twice (" + which + ")",
                  last_time_s_);
    }
  }

  bool is_dead(net::NodeId u) const noexcept {
    return u < dead_.size() && dead_[u] != 0;
  }
  void mark_dead(net::NodeId u) {
    if (u == net::kInvalidNode) return;
    if (u >= dead_.size()) dead_.resize(u + 1, 0);
    dead_[u] = 1;
  }

  std::uint64_t sent_[net::kNumMessageTypes] = {};
  std::uint64_t delivered_[net::kNumMessageTypes] = {};
  std::uint64_t dropped_[net::kNumMessageTypes] = {};
  std::uint64_t abuse_sent_[net::kNumMessageTypes] = {};
  std::uint64_t abuse_delivered_[net::kNumMessageTypes] = {};
  std::uint64_t abuse_dropped_[net::kNumMessageTypes] = {};
  std::vector<char> dead_;
  std::vector<InvariantViolation> violations_;
  std::uint64_t total_violations_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t crashes_ = 0;
  double last_time_s_ = 0.0;
  int search_max_ttl_ = -1;
  int last_query_ttl_ = -1;
};

}  // namespace dsf::sim
