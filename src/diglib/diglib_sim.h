#pragma once

#include <cstdint>
#include <vector>

#include "core/benefit.h"
#include "core/flood_search.h"
#include "core/relations.h"
#include "core/stats_store.h"
#include "des/distributions.h"
#include "des/rng.h"
#include "des/simulator.h"
#include "metrics/time_series.h"
#include "net/message.h"
#include "sim/engine.h"
#include "sim/policy.h"

namespace dsf::diglib {

using DocId = std::uint32_t;

/// How the federation's neighbor lists are organized (§3.1).
enum class ListMode : std::uint8_t {
  kAllToAll,   ///< O_i and I_i contain every repository — exact recall, but
               ///< per-query cost grows linearly with the federation and
               ///< is "applicable only for small N"
  kStatic,     ///< random bounded outgoing lists, never updated
  kAdaptive,   ///< bounded lists + Algo-3 updates from search statistics
};

/// Distributed digital libraries (named in the paper's abstract): a
/// federation of always-on document servers.  Unlike the music-sharing
/// case there is no churn, search is *extensive* — the paper's
/// "retrieving numerous nodes containing the result" mode, so holders
/// keep forwarding — and the quality metric is recall: how many of the
/// copies that exist in the federation a query retrieves within the hop
/// budget.
struct DigLibConfig {
  std::uint32_t num_repositories = 64;
  std::uint32_t num_docs = 32'000;
  /// Many narrow topics: a random bounded list rarely contains a
  /// same-topic repository, which is precisely the regime where adaptive
  /// lists pay (with few broad topics, random reach already covers every
  /// topic and no topology can improve on it).
  std::uint32_t num_topics = 16;
  double topic_share = 0.7;       ///< queries/holdings inside own topic
  double zipf_theta = 0.8;        ///< document popularity within a topic
  std::uint32_t holdings = 800;   ///< documents per repository
  std::uint32_t num_neighbors = 3;  ///< bounded-list capacity
  int max_hops = 2;
  double mean_interquery_s = 5.0;  ///< per repository (client arrivals)
  /// Client-visible deadline for a query that retrieves no copy — the
  /// latency an open-loop injected miss occupies its server for (closed
  /// loop has no deadline: unsatisfied queries simply score no delay).
  double query_timeout_s = 4.0;
  ListMode mode = ListMode::kAdaptive;
  double update_period_s = 600.0;  ///< Algo-3 trigger for kAdaptive
  /// Query-propagation scheme: the flood family or kTopK (ranked retrieval
  /// over document scores).
  sim::SearchStrategyKind search_strategy = sim::SearchStrategyKind::kFlood;
  std::uint32_t top_k = 1;  ///< kTopK: copies the client wants ranked
  double sim_hours = 2.0;
  double warmup_hours = 0.25;
  std::uint64_t seed = 17;
};

struct DigLibResult {
  std::uint64_t queries = 0;         ///< post-warmup
  std::uint64_t satisfied = 0;       ///< queries with >= 1 result
  std::uint64_t copies_found = 0;    ///< results returned across queries
  std::uint64_t copies_available = 0;  ///< copies existing for those queries
  metrics::Summary first_result_delay_s;
  metrics::Summary messages_per_query;
  net::MessageStats traffic;

  /// Fraction of existing copies retrieved.  Popular documents are
  /// replicated across the whole federation, so full recall is bounded by
  /// the *distinct reach* of a query — it separates all-to-all from
  /// bounded lists but cannot reward topology bias.
  double recall() const {
    return copies_available
               ? static_cast<double>(copies_found) /
                     static_cast<double>(copies_available)
               : 0.0;
  }

  /// Fraction of queries that found at least one copy — the metric
  /// adaptation improves (it targets the repositories likely to hold the
  /// requester's topic, which matters for tail documents).
  double hit_rate() const {
    return queries ? static_cast<double>(satisfied) /
                         static_cast<double>(queries)
                   : 0.0;
  }
};

class DigLibSim : public sim::OverlayEngine {
 public:
  explicit DigLibSim(const DigLibConfig& config);

  DigLibResult run();

  const DigLibConfig& config() const noexcept { return config_; }

  /// Copies of `doc` across the federation (exposed for tests).
  std::uint32_t copies_of(DocId doc) const { return copy_count_.at(doc); }

 protected:
  /// Open-loop injection: serves one external document query at
  /// repository `r` through the same extensive flood search as closed-loop
  /// queries (ledger-accounted, span-visible, adaptive statistics fed)
  /// without touching the closed-loop DigLibResult counters.  `item` is a
  /// DocId, or load::kAnyItem to draw from `r`'s topic mix on the load
  /// lane.  A query that retrieves no copy serves for query_timeout_s.
  load::Served serve_injected_query(net::NodeId r,
                                    std::uint64_t item) override;

  /// Snapshot hooks: per-repository benefit statistics and exploration
  /// links plus the result accumulators.  Holdings and copy counts are
  /// immutable and come from the constructor.
  void save_domain(snap::Writer::Out& out) const override;
  void load_domain(snap::Reader::In& in) override;

  /// Runs a query, or one recurring neighbor update and schedules the
  /// next one a period later.
  void on_event(const des::Event& e) override;

 private:
  /// Event kinds; a = r.
  static constexpr std::uint32_t kLibQuery = kKeyedUserBase + 0;
  static constexpr std::uint32_t kLibUpdate = kKeyedUserBase + 1;

  struct Repository {
    std::vector<DocId> holdings;  ///< sorted for binary search
    core::StatsStore stats;
    std::uint32_t topic = 0;
    /// The rotating exploration link (Algo 2): without churn, purely
    /// benefit-driven lists collapse same-topic repositories into cliques
    /// and nothing new is ever discovered; one slot stays random and is
    /// re-drawn at every update.
    net::NodeId exploration_link = net::kInvalidNode;
  };

  /// Validates the config and builds the engine parameterization.
  static sim::EngineConfig make_engine_config(const DigLibConfig& config);

  void issue_query(net::NodeId r);
  /// The search path shared by closed-loop queries and open-loop
  /// injection: extensive search from `from` through the engine's
  /// search(), then (kAdaptive) benefit-statistics feeding.
  core::SearchOutcome search_doc(net::NodeId from, DocId doc);
  void update_neighbors(net::NodeId r);
  DocId draw_doc(std::uint32_t home_topic) {
    return draw_doc(home_topic, rng());
  }
  DocId draw_doc(std::uint32_t home_topic, des::Rng& r);
  bool holds(net::NodeId r, DocId doc) const;

  DigLibConfig config_;
  std::vector<Repository> repos_;
  std::vector<std::uint32_t> copy_count_;  ///< per-document replica count
  des::Zipf doc_zipf_;
  des::Exponential interquery_;
  core::ItemsOverLatency benefit_;
  DigLibResult result_;
};

}  // namespace dsf::diglib
