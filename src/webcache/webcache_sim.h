#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/benefit.h"
#include "core/relations.h"
#include "core/stats_store.h"
#include "core/update.h"
#include "des/distributions.h"
#include "des/rng.h"
#include "des/simulator.h"
#include "metrics/time_series.h"
#include "net/bloom.h"
#include "net/message.h"
#include "sim/engine.h"
#include "webcache/lru_cache.h"

namespace dsf::webcache {

using PageId = std::uint32_t;

/// Cooperative web-proxy caching à la Squid (§1, §3 examples): proxies keep
/// LRU page caches; a local miss probes the outgoing neighbors (hop limit 1
/// — the Squid convention, since the origin server is always available as
/// the alternative repository) before falling back to the origin.
///
/// Relations are *pure asymmetric* (§3.1): any proxy may point its outgoing
/// list at any other, no agreement required, so neighbor update is the
/// simple Algo-3 top-k selection, driven by items/latency benefit and fed
/// by periodic exploration (Algo 2) that summarizes how much of the
/// requester's hot set a candidate holds.
struct WebCacheConfig {
  std::uint32_t num_proxies = 64;
  std::uint32_t num_pages = 100'000;
  std::uint32_t num_topics = 16;       ///< interest communities
  double topic_share = 0.6;            ///< fraction of requests in own topic
  double zipf_theta = 0.8;             ///< page popularity within a topic
  std::uint32_t cache_capacity = 1'000;
  std::uint32_t num_neighbors = 3;     ///< outgoing-list capacity
  /// Squid-hierarchy mode (§3.1's pure-asymmetric example): the first
  /// `num_parents` proxies are top-level caches that accept requests from
  /// every leaf but never forward to them.  Leaves point their outgoing
  /// lists only at parents; a miss at every probed parent is fetched from
  /// the origin *through* the primary parent, which caches it (the
  /// aggregation effect of a hierarchy).  0 = flat cooperative mesh.
  std::uint32_t num_parents = 0;
  std::uint32_t parent_capacity_factor = 4;  ///< parent cache size multiplier
  double mean_interrequest_s = 1.0;    ///< per-proxy request rate
  double origin_latency_s = 1.0;       ///< fetch from the web server
  bool dynamic = true;                 ///< adaptive vs static random lists
  double explore_period_s = 300.0;     ///< Algo-2 trigger (periodic)
  std::uint32_t explore_sample = 8;    ///< candidates probed per exploration
  std::uint32_t hot_set_size = 64;     ///< MRU prefix matched in exploration
  /// Proxies advertise Bloom digests of their content (Squid cache
  /// digests); exploration matches the hot set against the candidate's
  /// digest instead of its live cache.  Digests are rebuilt periodically,
  /// so they can be stale — the realistic failure mode of digest-based
  /// cooperation.  0 disables digests (exploration reads live caches).
  double digest_rebuild_period_s = 600.0;
  double digest_fpp = 0.02;            ///< digest false-positive target
  double update_period_s = 600.0;      ///< Algo-3 trigger (periodic)
  double sim_hours = 4.0;
  double warmup_hours = 0.5;
  std::uint64_t seed = 7;
};

struct WebCacheResult {
  std::uint64_t requests = 0;       ///< post-warmup
  std::uint64_t local_hits = 0;
  std::uint64_t neighbor_hits = 0;
  std::uint64_t origin_fetches = 0;
  metrics::Summary latency_s;       ///< end-to-end per request
  net::MessageStats traffic;

  double neighbor_hit_rate() const {
    const std::uint64_t misses = neighbor_hits + origin_fetches;
    return misses ? static_cast<double>(neighbor_hits) /
                        static_cast<double>(misses)
                  : 0.0;
  }
  double local_hit_rate() const {
    return requests ? static_cast<double>(local_hits) /
                          static_cast<double>(requests)
                    : 0.0;
  }
};

class WebCacheSim : public sim::OverlayEngine {
 public:
  explicit WebCacheSim(const WebCacheConfig& config);

  WebCacheResult run();

  const WebCacheConfig& config() const noexcept { return config_; }

 protected:
  /// Open-loop injection: serves one external page request at proxy `p`
  /// through the same cache/probe/origin path as closed-loop requests
  /// (caches warm, dynamic statistics fed, span-visible) without touching
  /// the closed-loop WebCacheResult counters.  `item` is a PageId, or
  /// load::kAnyItem to draw from `p`'s topic mix on the load lane.  Every
  /// request is served (the origin is always available); hit means the
  /// page came from a cooperative cache, local or neighbor.
  load::Served serve_injected_query(net::NodeId p,
                                    std::uint64_t item) override;

  /// Snapshot hooks: per-proxy caches, benefit statistics and content
  /// digests (mutable — rebuilt periodically) plus the result accumulators.
  void save_domain(snap::Writer::Out& out) const override;
  void load_domain(snap::Reader::In& in) override;

  /// Runs a client request, or one recurring exploration, neighbor update
  /// or digest rebuild and schedules its next one a period later.
  void on_event(const des::Event& e) override;

 private:
  /// Event kinds; a = p.
  static constexpr std::uint32_t kWebRequest = kKeyedUserBase + 0;
  static constexpr std::uint32_t kWebExplore = kKeyedUserBase + 1;
  static constexpr std::uint32_t kWebUpdate = kKeyedUserBase + 2;
  static constexpr std::uint32_t kWebDigest = kKeyedUserBase + 3;

  struct Proxy {
    LruCache<PageId> cache;
    core::StatsStore stats;
    net::BloomFilter digest;
    std::uint32_t topic = 0;
    Proxy(std::size_t capacity, std::size_t digest_bits, int digest_hashes)
        : cache(capacity), digest(digest_bits, digest_hashes) {}
  };

  /// Validates the config and builds the engine parameterization.
  static sim::EngineConfig make_engine_config(const WebCacheConfig& config);

  void request(net::NodeId p);
  /// The service path shared by closed-loop requests and open-loop
  /// injection: local LRU touch, one-hop neighbor probe, origin fallback.
  /// Returns the end-to-end latency; sets *hit when the page was served
  /// from a cache (own or neighbor) rather than the origin.  `record`
  /// gates the WebCacheResult counters (false for injected queries).
  double serve_page(net::NodeId p, PageId page, bool record, bool* hit);
  void explore_from(net::NodeId p);
  void update_neighbors(net::NodeId p);
  void rebuild_digest(net::NodeId p);
  PageId draw_page(net::NodeId p) { return draw_page(p, rng()); }
  PageId draw_page(net::NodeId p, des::Rng& r);
  bool is_parent(net::NodeId p) const noexcept {
    return p < config_.num_parents;
  }

  WebCacheConfig config_;
  std::vector<Proxy> proxies_;
  des::Zipf page_zipf_;
  des::Exponential interrequest_;
  core::ItemsOverLatency benefit_;
  WebCacheResult result_;
};

}  // namespace dsf::webcache
