#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/benefit.h"
#include "core/flood_search.h"
#include "core/relations.h"
#include "core/search_strategies.h"
#include "core/stats_store.h"
#include "core/update.h"
#include "core/visit_stamp.h"
#include "des/rng.h"
#include "des/simulator.h"
#include "gnutella/config.h"
#include "metrics/time_series.h"
#include "net/bloom.h"
#include "net/delay_model.h"
#include "net/message.h"
#include "sim/engine.h"
#include "workload/catalog.h"
#include "workload/library.h"
#include "workload/library_pool.h"
#include "workload/query_gen.h"
#include "workload/session.h"
#include "workload/user_profile.h"

namespace dsf::gnutella {

/// One overlay-structure sample (Config::probe_period_s > 0).
struct ProbeSample {
  double time_s = 0.0;
  double mean_degree = 0.0;
  double degree_gini = 0.0;
  double same_favorite = 0.0;  ///< homophily of out-links
  double clustering = 0.0;     ///< mean local clustering coefficient
  std::size_t online = 0;
};

/// Everything a figure needs from one run.
struct RunResult {
  metrics::TimeSeries hits{3600.0};      ///< queries satisfied per hour
  metrics::TimeSeries messages{3600.0};  ///< query propagations per hour
  metrics::TimeSeries results{3600.0};   ///< individual results per hour
  metrics::Summary first_result_delay_s; ///< over satisfied queries (post-warmup)
  /// Same delays, binned for quantiles (p50/p95/p99); range covers the
  /// physical maximum of a 5-hop modem path plus reply.
  metrics::Histogram first_result_delay_hist{0.0, 5.0, 500};
  net::MessageStats traffic;             ///< all message types incl. control

  std::uint64_t queries_issued = 0;   ///< network queries (post-warmup)
  std::uint64_t hits_reported = 0;    ///< satisfied queries (post-warmup)
  std::uint64_t messages_reported = 0; ///< query propagations (post-warmup)
  std::uint64_t results_reported = 0; ///< individual results (post-warmup)
  std::uint64_t local_hits = 0;       ///< requests satisfied from own library
  metrics::Summary nodes_reached;     ///< distinct nodes per flood (post-warmup)
  std::uint64_t queries_favorite = 0; ///< queries in the user's favourite category
  std::uint64_t hits_favorite = 0;
  std::uint64_t queries_side = 0;     ///< queries in a side category
  std::uint64_t hits_side = 0;
  std::uint64_t reconfigurations = 0; ///< Reconfigure executions
  std::uint64_t invitations_accepted = 0;
  std::uint64_t evictions = 0;
  std::uint64_t trials_kept = 0;      ///< kTrialPeriod: relationships kept
  std::uint64_t trials_rejected = 0;  ///< kTrialPeriod: terminated after trial
  std::uint64_t events_executed = 0;  ///< DES events over the whole horizon

  std::vector<ProbeSample> probes;  ///< overlay-structure evolution

  std::uint64_t total_hits() const { return hits_reported; }
  std::uint64_t total_messages() const { return messages_reported; }
  std::uint64_t total_results() const { return results_reported; }
};

/// The §4 case study: a population of music-sharing users over a symmetric
/// overlay, either static (random neighbors, random replacement on log-off)
/// or dynamic (Algo 5: combined search/exploration, benefit-ranked
/// reconfiguration with invitations and evictions).
///
/// The class is also the reference example of instantiating the framework:
/// sim::OverlayEngine provides the simulator, RNG lanes, delay model,
/// overlay table and message accounting; this class adds the workload
/// (catalog/libraries/sessions) and the Algo 5 event handlers.
class Simulation : public sim::OverlayEngine {
 public:
  explicit Simulation(const Config& config);

  /// Runs the full horizon and returns the collected metrics.
  RunResult run();

  /// --- instrumented access (tests, examples) ---
  const Config& config() const noexcept { return config_; }
  const workload::Catalog& catalog() const noexcept { return catalog_; }
  bool online(net::NodeId u) const { return hot_.at(u).online; }
  /// Ownership including downloaded songs.
  bool owns(net::NodeId u, workload::SongId s) const {
    return libraries_.contains(u, s);
  }
  const workload::UserProfile& profile(net::NodeId u) const {
    return cold_.at(u).profile;
  }
  const core::StatsStore& stats(net::NodeId u) const {
    return cold_.at(u).stats;
  }
  std::size_t online_count() const noexcept { return online_nodes_.size(); }
  const workload::LibraryPool& libraries() const noexcept {
    return libraries_;
  }

  /// Prepares the initial event population without running (tests drive
  /// the simulator manually afterwards).
  void prime();

 protected:
  /// Ungraceful failure (CrashModel victim or explicit crash_node): the
  /// victim's own pending activity stops, but — unlike log_off — nobody
  /// isolates it from the overlay, so ex-neighbors keep dangling entries
  /// and their future sends to it are dropped on arrival.
  void on_peer_crashed(net::NodeId u) override;

  /// Open-loop injection: serves one external query at `u` through the
  /// same strategy dispatch as closed-loop searches (ledger-accounted,
  /// span-visible, dynamic statistics fed), without touching the
  /// closed-loop RunResult series.  `item` is a SongId, or load::kAnyItem
  /// to draw from `u`'s preference profile on the load lane.  A miss
  /// serves for the full query timeout.
  load::Served serve_injected_query(net::NodeId u,
                                    std::uint64_t item) override;

  /// Snapshot hooks: per-user hot/cold mutable state, the on-line roster,
  /// library growth spills and the result accumulators.  Catalog,
  /// profiles, libraries and digests are reconstructed by the constructor.
  void save_domain(snap::Writer::Out& out) const override;
  void load_domain(snap::Reader::In& in) override;

  /// Runs a session, query, trial or probe event.  A session or query
  /// record runs only at its user's due time; a superseded one does
  /// nothing.  A probe schedules the next one a period later.
  void on_event(const des::Event& e) override;

 private:
  // Per-user state is split SoA-style.  The hot record is what every
  // session/query event dispatch touches — 32 bytes, so a million-peer
  // event loop walks a dense array instead of dragging profiles,
  // statistics and query windows through the cache.  Libraries live in a
  // shared workload::LibraryPool arena (one allocation for the whole
  // population instead of one vector per user).
  struct UserHot {
    /// Times the user's latest query and session records are due, or -1
    /// when none is expected.  Rescheduling, log-off or a crash overwrites
    /// the time, which supersedes the pending record: it still pops, but
    /// on_event skips it.
    des::SimTime query_due_s = -1.0;
    des::SimTime session_due_s = -1.0;
    std::uint32_t reconfig_count = 0;
    std::uint32_t online_pos = 0;  ///< index in online_nodes_ when online
    bool online = false;
  };
  static_assert(sizeof(UserHot) == 32, "hot per-user record is 32 bytes");
  /// Cold per-user state: read on queries and invitations, not per event.
  struct UserCold {
    workload::UserProfile profile;
    core::StatsStore stats;
    /// Ring of the user's most recent query targets, matched against
    /// library digests by the summary-gated invitation policy.
    std::vector<workload::SongId> recent_queries;
    std::size_t recent_pos = 0;
  };
  static constexpr std::size_t kRecentQueryWindow = 32;

  /// Event kinds.  A session event's direction (log_in vs log_off) is not
  /// stored: it flips hot_[u].online, which every path that changes the
  /// flag keeps in step by superseding or rescheduling the session event.
  static constexpr std::uint32_t kGnuSession = kKeyedUserBase + 0;  ///< a = u
  static constexpr std::uint32_t kGnuQuery = kKeyedUserBase + 1;    ///< a = u
  static constexpr std::uint32_t kGnuTrial =
      kKeyedUserBase + 2;  ///< a = inviter, b = invitee
  static constexpr std::uint32_t kGnuProbe = kKeyedUserBase + 3;  ///< no payload

  /// Validates the config and builds the engine parameterization.
  static sim::EngineConfig make_engine_config(const Config& config);

  void log_in(net::NodeId u);
  void log_off(net::NodeId u);
  void issue_query(net::NodeId u);
  /// One search by `u` for `song` through the configured scheme, the
  /// body closed-loop and injected queries share (the engine's search()
  /// does the span, certification and accounting).
  core::SearchOutcome search_song(net::NodeId u, workload::SongId song);
  /// kTopK's per-peer score for a (peer, song) query: 0 unless the peer
  /// holds the song; holders get a deterministic score in (0, 1] keyed on
  /// (seed, peer, song) — the relevance spread the ranked scheme orders.
  double ranked_score(net::NodeId n, workload::SongId song) const noexcept;
  /// Algo 5's combined search & exploration (dynamic scheme): feeds every
  /// result of `outcome` into u's benefit statistics, then reconfigures u
  /// once its reconfiguration threshold is reached.
  void feed_statistics(net::NodeId u, const core::SearchOutcome& outcome);
  void schedule_next_query(net::NodeId u);
  void reconfigure(net::NodeId u);
  /// Sends an invitation u → v; returns true if v accepted and the link is
  /// up (Algo 5, Process Invitation).
  bool invite(net::NodeId u, net::NodeId v);
  /// §3.4 option (b): v estimates the potential benefit of candidate `c`
  /// as the number of its recent query targets that c's library digest
  /// claims to hold.
  std::uint32_t summary_estimate(net::NodeId v, net::NodeId c) const;
  /// §3.4 option (a): end of a provisional relationship — keep the
  /// inviter if it now beats at least one other neighbor, else terminate.
  void evaluate_trial(net::NodeId inviter, net::NodeId invitee);
  /// Sends an eviction from `evictor` severing the link to `evictee`
  /// (Algo 5, Process Eviction).
  void evict(net::NodeId evictor, net::NodeId evictee);
  /// Connects `u` to random online peers until its list holds `target`
  /// entries (default: full) or the attempt budget is spent
  /// (bootstrap-server behaviour of Gnutella).
  void fill_with_random_neighbors(net::NodeId u, std::size_t target = SIZE_MAX);
  /// Hook for every new overlay link u -> v: under local indices, sends
  /// the content-digest exchange in both directions.
  void on_link_formed(net::NodeId u, net::NodeId v);
  /// Samples overlay-structure statistics (rescheduled by the engine).
  void probe_overlay();
  double benefit_of(const core::ResultInfo& info) const {
    return benefit_fn_->benefit(info);
  }

  Config config_;
  workload::Catalog catalog_;
  workload::LibraryGenerator library_gen_;
  workload::QueryGenerator query_gen_;
  workload::SessionModel session_;
  std::vector<UserHot> hot_;
  std::vector<UserCold> cold_;
  workload::LibraryPool libraries_;
  /// One library digest per user (libraries are static, built once); only
  /// materialized when the summary-gated policy is active.
  std::vector<net::BloomFilter> digests_;
  std::vector<net::NodeId> online_nodes_;
  std::unique_ptr<core::BenefitFunction> benefit_fn_;
  RunResult result_;
};

/// Builds the benefit function for a config (exposed for tests/ablations).
std::unique_ptr<core::BenefitFunction> make_benefit(BenefitKind kind);

}  // namespace dsf::gnutella
