#include "webcache/webcache_sim.h"

#include <algorithm>

#include "snap/codec.h"

namespace dsf::webcache {

sim::EngineConfig WebCacheSim::make_engine_config(const WebCacheConfig& config) {
  sim::require_positive("webcache", "num_proxies", config.num_proxies);
  sim::require_positive("webcache", "num_topics", config.num_topics);
  sim::require_positive("webcache", "num_neighbors", config.num_neighbors);
  sim::require_positive("webcache", "cache_capacity", config.cache_capacity);
  sim::validate_or_throw(config.num_parents < config.num_proxies, "webcache",
                         "num_parents must leave at least one leaf");
  sim::EngineConfig ec;
  ec.name = "webcache";
  ec.num_nodes = config.num_proxies;
  ec.seed = config.seed;
  ec.rng_layout = sim::RngLayout::kCompact;
  ec.relation = core::RelationKind::kPureAsymmetric;
  ec.out_capacity = config.num_neighbors;
  ec.in_capacity = 0;  // overridden to N by the pure-asymmetric relation
  ec.sim_hours = config.sim_hours;
  ec.warmup_hours = config.warmup_hours;
  ec.event_kinds = kWebDigest + 1 - kKeyedUserBase;
  ec.schedule_values = {
      {"dynamic", config.dynamic ? 1.0 : 0.0},
      {"num_parents", static_cast<double>(config.num_parents)},
      {"explore_period_s", config.explore_period_s},
      {"update_period_s", config.update_period_s},
      {"digest_rebuild_period_s", config.digest_rebuild_period_s}};
  return ec;
}

WebCacheSim::WebCacheSim(const WebCacheConfig& config)
    : sim::OverlayEngine(make_engine_config(config)),
      config_(config),
      page_zipf_(config.num_pages / config.num_topics, config.zipf_theta),
      interrequest_(config.mean_interrequest_s) {
  // Digest geometry sized once for the (parent) cache capacity at the
  // target false-positive rate.
  const std::size_t parent_capacity =
      static_cast<std::size_t>(config.cache_capacity) *
      config.parent_capacity_factor;
  const net::BloomFilter reference(
      config.num_parents ? parent_capacity : config.cache_capacity,
      config.digest_fpp);
  proxies_.reserve(config.num_proxies);
  for (std::uint32_t p = 0; p < config.num_proxies; ++p) {
    const std::size_t capacity =
        p < config.num_parents ? parent_capacity : config.cache_capacity;
    proxies_.emplace_back(capacity, reference.bit_count(),
                          reference.hash_count());
    proxies_.back().topic = p % config.num_topics;
  }
  // Initial outgoing lists: random, as a fresh deployment would start.
  // In hierarchy mode leaves point only at parents; parents point nowhere
  // (they resolve misses at the origin).
  for (net::NodeId p = 0; p < config.num_proxies; ++p) {
    if (is_parent(p)) continue;
    fill_random_neighbors(
        p, config.num_neighbors, default_bootstrap_attempts(),
        [this] {
          return static_cast<net::NodeId>(
              config_.num_parents ? rng().uniform_int(config_.num_parents)
                                  : rng().uniform_int(config_.num_proxies));
        },
        [](net::NodeId) {});
  }
}

PageId WebCacheSim::draw_page(net::NodeId p, des::Rng& r) {
  // topic_share of requests in the proxy's own community, the rest uniform
  // over all topics — the cross-topic tail is what adaptive neighbor choice
  // cannot help with, keeping the comparison honest.
  const std::uint32_t pages_per_topic = config_.num_pages / config_.num_topics;
  std::uint32_t topic = proxies_[p].topic;
  if (!r.bernoulli(config_.topic_share))
    topic = static_cast<std::uint32_t>(r.uniform_int(config_.num_topics));
  const auto rank = static_cast<std::uint32_t>(page_zipf_.sample(r));
  return topic * pages_per_topic + rank;
}

double WebCacheSim::serve_page(net::NodeId p, PageId page, bool record,
                               bool* hit) {
  Proxy& proxy = proxies_[p];
  if (proxy.cache.touch(page)) {
    if (record) {
      ++result_.local_hits;
      result_.latency_s.add(0.001);  // local service time
    }
    if (hit) *hit = true;
    return 0.001;
  }
  // One-hop probe of the outgoing neighbors (Squid: hops = 1), then the
  // origin server as the alternative repository.
  const std::uint32_t span = obs_search_begin(p, 1, page);
  search_transmit().begin(1);
  double latency = 0.0;
  net::NodeId holder = net::kInvalidNode;
  for (net::NodeId q : overlay_.out_neighbors(p)) {
    // Probe lost or neighbor crashed: no reply.
    if (!send(net::MessageType::kQuery, p, q, 1).deliver) continue;
    // Reply lost: the probe goes unanswered.
    if (!send(net::MessageType::kQueryReply, q, p, -1).deliver) continue;
    if (holder == net::kInvalidNode && proxies_[q].cache.contains(page))
      holder = q;
  }
  if (holder != net::kInvalidNode) {
    // Request + page transfer from the neighbor.
    latency = 2.0 * sample_delay_s(p, holder);
    if (record) ++result_.neighbor_hits;
    if (config_.dynamic) {
      core::ResultInfo info;
      info.responder = holder;
      info.items = 1.0;
      info.latency_s = latency;
      proxy.stats.add(holder, benefit_.benefit(info));
    }
  } else if (config_.num_parents > 0 && !overlay_.out_neighbors(p).empty() &&
             !node_dead(overlay_.out_neighbors(p).front())) {
    // Hierarchy: the miss resolves at the origin *through* the primary
    // parent, which caches the page on the way — the aggregation that
    // makes top-level proxies worth having.
    const net::NodeId parent = overlay_.out_neighbors(p).front();
    latency = config_.origin_latency_s + 2.0 * sample_delay_s(p, parent);
    proxies_[parent].cache.insert(page);
    if (record) ++result_.origin_fetches;
  } else {
    latency = config_.origin_latency_s;
    if (record) ++result_.origin_fetches;
  }
  if (holder != net::kInvalidNode)
    obs_search_end(span, p, 1, 1, latency);
  else
    obs_search_end(span, p, 0, -1, -1.0);
  if (record) result_.latency_s.add(latency);
  proxy.cache.insert(page);
  if (hit) *hit = holder != net::kInvalidNode;
  return latency;
}

void WebCacheSim::request(net::NodeId p) {
  if (node_dead(p)) return;  // a crashed proxy stops serving its clients
  const PageId page = draw_page(p);
  if (reporting()) ++result_.requests;
  serve_page(p, page, reporting(), nullptr);
  sim_.schedule_in(interrequest_.sample(rng()), des::Event{kWebRequest, p, 0});
}

load::Served WebCacheSim::serve_injected_query(net::NodeId p,
                                               std::uint64_t item) {
  const PageId page = item == load::kAnyItem
                          ? draw_page(p, load_lane())
                          : static_cast<PageId>(item % config_.num_pages);
  load::Served served;
  served.latency_s = serve_page(p, page, /*record=*/false, &served.hit);
  return served;
}

void WebCacheSim::explore_from(net::NodeId p) {
  // Algo 2: probe a random candidate set with the proxy's hot set (MRU
  // prefix) as the summarized collection; each reply reports how many of
  // those pages the candidate holds, converted into benefit via the mean
  // path latency.
  if (node_dead(p)) return;  // crashed: no more exploration
  Proxy& proxy = proxies_[p];
  std::vector<PageId> hot;
  hot.reserve(config_.hot_set_size);
  for (PageId page : proxy.cache.order()) {
    hot.push_back(page);
    if (hot.size() >= config_.hot_set_size) break;
  }
  const bool use_digests = config_.digest_rebuild_period_s > 0.0;
  for (std::uint32_t i = 0; i < config_.explore_sample; ++i) {
    // In hierarchy mode only top-level proxies are candidate neighbors.
    const auto q = static_cast<net::NodeId>(
        config_.num_parents ? rng().uniform_int(config_.num_parents)
                            : rng().uniform_int(config_.num_proxies));
    if (q == p) continue;
    // Probe lost or candidate crashed: no reply.
    if (!send(net::MessageType::kExploreQuery, p, q, -1).deliver) continue;
    // Reply lost: the candidate goes unscored.
    if (!send(net::MessageType::kExploreReply, q, p, -1).deliver) continue;
    std::uint32_t overlap = 0;
    for (PageId page : hot) {
      // Digest match: cheap and shippable, but stale between rebuilds and
      // subject to false positives — the price of summarized information.
      const bool match = use_digests
                             ? proxies_[q].digest.might_contain(page)
                             : proxies_[q].cache.contains(page);
      if (match) ++overlap;
    }
    if (overlap > 0) {
      core::ResultInfo info;
      info.responder = q;
      info.items = overlap;
      info.latency_s = 2.0 * delay_.mean_delay_s(p, q);
      proxy.stats.add(q, benefit_.benefit(info));
    }
  }
}

void WebCacheSim::update_neighbors(net::NodeId p) {
  if (node_dead(p)) return;  // crashed: no more reorganizations
  // Algo 3 (pure asymmetric): adopt the top-k beneficial nodes outright —
  // no agreement needed, the incoming side accepts everyone.  Hierarchy
  // mode restricts eligibility to the top-level proxies.
  const auto plan = core::plan_update(
      proxies_[p].stats, overlay_.out_neighbors(p), config_.num_neighbors,
      [this, p](net::NodeId n) {
        return n != p && (config_.num_parents == 0 || is_parent(n));
      });
  // Notifications only: each link or unlink stands whatever the
  // message's fate.
  for (net::NodeId x : plan.evictions) {
    overlay_.unlink(p, x);
    send(net::MessageType::kEviction, p, x, -1);
  }
  for (net::NodeId v : plan.additions) {
    overlay_.link(p, v);
    send(net::MessageType::kInvitation, p, v, -1);
  }
}

void WebCacheSim::rebuild_digest(net::NodeId p) {
  if (node_dead(p)) return;  // crashed: digest freezes at its last state
  Proxy& proxy = proxies_[p];
  proxy.digest.clear();
  for (PageId page : proxy.cache.order()) proxy.digest.insert(page);
}

WebCacheResult WebCacheSim::run() {
  // A resumed run takes its pending events from the snapshot and must not
  // draw the initial delays.  Each recurring kind starts at a uniform phase
  // within its period.
  const auto start = [this](std::uint32_t kind, net::NodeId p,
                            double period_s) {
    sim_.schedule_in(rng().uniform(0.0, period_s), des::Event{kind, p, 0});
  };
  if (!resumed()) {
    for (net::NodeId p = 0; p < config_.num_proxies; ++p) {
      // Parents have no client population of their own; they serve (and
      // are warmed by) leaf misses only.
      if (!is_parent(p))
        sim_.schedule_in(interrequest_.sample(rng()),
                         des::Event{kWebRequest, p, 0});
      // Parents only rebuild their digest; leaves explore, update and
      // rebuild when dynamic.
      if (!is_parent(p) && config_.dynamic) {
        start(kWebExplore, p, config_.explore_period_s);
        start(kWebUpdate, p, config_.update_period_s);
      }
      if ((is_parent(p) || config_.dynamic) &&
          config_.digest_rebuild_period_s > 0.0)
        start(kWebDigest, p, config_.digest_rebuild_period_s);
    }
  }
  run_until_horizon();
  result_.traffic = traffic();
  return result_;
}

void WebCacheSim::save_domain(snap::Writer::Out& out) const {
  for (const Proxy& proxy : proxies_) {
    snap::put_lru(out, proxy.cache);
    snap::put_stats_store(out, proxy.stats);
    snap::put_bloom(out, proxy.digest);
  }
  // traffic is assigned at the end of run() from the restored ledger.
  out.u64(result_.requests);
  out.u64(result_.local_hits);
  out.u64(result_.neighbor_hits);
  out.u64(result_.origin_fetches);
  snap::put_summary(out, result_.latency_s);
}

void WebCacheSim::load_domain(snap::Reader::In& in) {
  for (Proxy& proxy : proxies_) {
    snap::get_lru(in, proxy.cache, config_.num_pages);
    snap::get_stats_store(in, proxy.stats, proxies_.size());
    snap::get_bloom(in, proxy.digest);
  }
  result_.requests = in.u64();
  result_.local_hits = in.u64();
  result_.neighbor_hits = in.u64();
  result_.origin_fetches = in.u64();
  snap::get_summary(in, result_.latency_s);
}

void WebCacheSim::on_event(const des::Event& e) {
  const auto p = static_cast<net::NodeId>(e.a);
  switch (e.kind) {
    case kWebRequest:
      request(p);
      return;
    case kWebExplore:
      explore_from(p);
      sim_.schedule_in(config_.explore_period_s, e);
      return;
    case kWebUpdate:
      update_neighbors(p);
      sim_.schedule_in(config_.update_period_s, e);
      return;
    case kWebDigest:
      rebuild_digest(p);
      sim_.schedule_in(config_.digest_rebuild_period_s, e);
      return;
    default:
      OverlayEngine::on_event(e);
  }
}

}  // namespace dsf::webcache
