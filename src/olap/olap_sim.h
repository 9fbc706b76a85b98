#pragma once

#include <cstdint>
#include <vector>

#include "core/benefit.h"
#include "core/relations.h"
#include "core/stats_store.h"
#include "core/update.h"
#include "des/distributions.h"
#include "des/rng.h"
#include "des/simulator.h"
#include "metrics/time_series.h"
#include "net/message.h"
#include "sim/engine.h"
#include "webcache/lru_cache.h"

namespace dsf::olap {

using ChunkId = std::uint32_t;

/// PeerOlap-like distributed caching of OLAP results (§2): a query
/// decomposes into chunks; chunks missing from the local cache are
/// requested from peers (extensive search — a query keeps propagating even
/// after partial answers, up to the hop limit) and, failing that, computed
/// at the data warehouse, whose per-chunk processing time dominates every
/// other cost.  Benefit is therefore processing time saved (§3.4), and
/// relations are asymmetric: a big underutilized peer can serve many
/// smaller ones without consuming their resources.
struct OlapConfig {
  std::uint32_t num_peers = 48;
  std::uint32_t num_chunks = 48'000;  ///< divides evenly into regions
  std::uint32_t num_regions = 12;     ///< interest regions of the cube
  double region_share = 0.7;          ///< queries inside own region
  double zipf_theta = 0.8;            ///< chunk popularity within a region
  std::uint32_t query_span = 8;       ///< chunks per query
  std::uint32_t cache_capacity = 800;
  std::uint32_t num_neighbors = 3;
  int max_hops = 2;
  double mean_interquery_s = 10.0;
  double warehouse_s_per_chunk = 2.0;  ///< processing cost at the warehouse
  double peer_s_per_chunk = 0.05;      ///< transfer cost from a peer
  bool dynamic = true;
  double update_period_s = 900.0;
  double sim_hours = 6.0;
  double warmup_hours = 1.0;
  std::uint64_t seed = 11;
};

struct OlapResult {
  std::uint64_t queries = 0;          ///< post-warmup
  std::uint64_t chunks_requested = 0;
  std::uint64_t chunks_local = 0;
  std::uint64_t chunks_from_peers = 0;
  std::uint64_t chunks_from_warehouse = 0;
  metrics::Summary response_time_s;   ///< per query
  net::MessageStats traffic;

  double peer_hit_rate() const {
    const std::uint64_t remote = chunks_from_peers + chunks_from_warehouse;
    return remote ? static_cast<double>(chunks_from_peers) /
                        static_cast<double>(remote)
                  : 0.0;
  }
};

class OlapSim : public sim::OverlayEngine {
 public:
  explicit OlapSim(const OlapConfig& config);

  OlapResult run();

 protected:
  /// Open-loop injection: serves one external OLAP query at peer `p`
  /// through the same chunk-decomposition/extensive-search/warehouse path
  /// as closed-loop queries (caches warm, dynamic statistics fed,
  /// span-visible) without touching the closed-loop OlapResult counters.
  /// `item` anchors the chunk span (clamped into its region), or
  /// load::kAnyItem to draw from `p`'s region mix on the load lane.  Every
  /// query is answered (the warehouse always computes missing chunks);
  /// hit means at least one chunk came from a peer cache.
  load::Served serve_injected_query(net::NodeId p,
                                    std::uint64_t item) override;

  /// Snapshot hooks: per-peer caches and benefit statistics plus the result
  /// accumulators.  Regions and the RNG replay come from the constructor.
  void save_domain(snap::Writer::Out& out) const override;
  void load_domain(snap::Reader::In& in) override;

  /// Runs a query, or one recurring neighbor update and schedules the
  /// next one a period later.
  void on_event(const des::Event& e) override;

 private:
  /// Event kinds; a = p.
  static constexpr std::uint32_t kOlapQuery = kKeyedUserBase + 0;
  static constexpr std::uint32_t kOlapUpdate = kKeyedUserBase + 1;

  struct Peer {
    webcache::LruCache<ChunkId> cache;
    core::StatsStore stats;
    std::uint32_t region = 0;
    explicit Peer(std::size_t capacity) : cache(capacity) {}
  };

  /// Validates the config and builds the engine parameterization.
  static sim::EngineConfig make_engine_config(const OlapConfig& config);

  void issue_query(net::NodeId p);
  /// Draws one query template on `r`: `query_span` consecutive chunks
  /// anchored at a popular chunk of an interest region.
  ChunkId draw_query_base(net::NodeId p, des::Rng& r);
  /// The service path shared by closed-loop queries and open-loop
  /// injection: per-chunk local touch, extensive search, warehouse
  /// fallback.  Returns the total response time; sets *peer_served when at
  /// least one chunk came from a peer cache.  `record` gates the
  /// OlapResult counters (false for injected queries).
  double serve_chunks(net::NodeId p, ChunkId base, bool record,
                      bool* peer_served);
  void update_neighbors(net::NodeId p);

  OlapConfig config_;
  std::vector<Peer> peers_;
  des::Zipf chunk_zipf_;
  des::Exponential interquery_;
  core::ProcessingTimeSaved benefit_;
  OlapResult result_;
};

}  // namespace dsf::olap
