#include "olap/olap_sim.h"

#include <algorithm>

#include "snap/codec.h"

namespace dsf::olap {

sim::EngineConfig OlapSim::make_engine_config(const OlapConfig& config) {
  sim::require_positive("olap", "num_peers", config.num_peers);
  sim::require_positive("olap", "num_neighbors", config.num_neighbors);
  sim::require_positive("olap", "cache_capacity", config.cache_capacity);
  sim::require_divides("olap", "num_chunks", config.num_chunks, "num_regions",
                       config.num_regions);
  sim::validate_or_throw(
      config.query_span > 0 &&
          config.query_span <= config.num_chunks / config.num_regions,
      "olap", "query_span must fit inside one region");
  sim::EngineConfig ec;
  ec.name = "olap";
  ec.num_nodes = config.num_peers;
  ec.seed = config.seed;
  ec.rng_layout = sim::RngLayout::kCompact;
  ec.relation = core::RelationKind::kAsymmetric;
  ec.out_capacity = config.num_neighbors;
  ec.in_capacity = config.num_peers;
  ec.sim_hours = config.sim_hours;
  ec.warmup_hours = config.warmup_hours;
  ec.event_kinds = kOlapUpdate + 1 - kKeyedUserBase;
  ec.schedule_values = {{"dynamic", config.dynamic ? 1.0 : 0.0},
                        {"update_period_s", config.update_period_s}};
  return ec;
}

OlapSim::OlapSim(const OlapConfig& config)
    : sim::OverlayEngine(make_engine_config(config)),
      config_(config),
      chunk_zipf_(config.num_chunks / config.num_regions, config.zipf_theta),
      interquery_(config.mean_interquery_s) {
  peers_.reserve(config.num_peers);
  for (std::uint32_t p = 0; p < config.num_peers; ++p) {
    peers_.emplace_back(config.cache_capacity);
    peers_.back().region = p % config.num_regions;
  }
  for (net::NodeId p = 0; p < config.num_peers; ++p) {
    fill_random_neighbors(
        p, config.num_neighbors, default_bootstrap_attempts(),
        [this] {
          return static_cast<net::NodeId>(rng().uniform_int(config_.num_peers));
        },
        [](net::NodeId) {});
  }
}

ChunkId OlapSim::draw_query_base(net::NodeId p, des::Rng& r) {
  // Query template: `query_span` consecutive chunks anchored at a popular
  // chunk of an interest region (OLAP queries hit contiguous cube slices).
  const std::uint32_t chunks_per_region =
      config_.num_chunks / config_.num_regions;
  std::uint32_t region = peers_[p].region;
  if (!r.bernoulli(config_.region_share))
    region = static_cast<std::uint32_t>(r.uniform_int(config_.num_regions));
  const auto anchor_rank = static_cast<std::uint32_t>(chunk_zipf_.sample(r));
  return region * chunks_per_region +
         std::min(anchor_rank, chunks_per_region - config_.query_span);
}

double OlapSim::serve_chunks(net::NodeId p, ChunkId base, bool record,
                             bool* peer_served) {
  Peer& peer = peers_[p];
  if (peer_served) *peer_served = false;
  const bool report = record;
  double response = 0.0;
  for (std::uint32_t i = 0; i < config_.query_span; ++i) {
    const ChunkId chunk = base + i;
    if (report) ++result_.chunks_requested;
    if (peer.cache.touch(chunk)) {
      if (report) ++result_.chunks_local;
      continue;
    }

    // Extensive search (§3.2): the chunk request keeps propagating up to
    // the hop limit; the closest holder (in hops, then delay) serves it.
    const std::uint32_t span = obs_search_begin(p, config_.max_hops, chunk);
    search_transmit().begin(config_.max_hops);
    stamps_.begin_search();
    stamps_.mark(p);
    auto& queue = scratch_.queue;
    queue.clear();
    queue.push_back({p, net::kInvalidNode, 0, 0.0});
    net::NodeId holder = net::kInvalidNode;
    int holder_hop = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const auto cur = queue[head];
      if (holder != net::kInvalidNode && cur.hop + 1 > holder_hop) break;
      for (net::NodeId q : overlay_.out_neighbors(cur.node)) {
        if (q == cur.sender) continue;
        const auto tq = send(net::MessageType::kQuery, cur.node, q,
                             config_.max_hops - cur.hop);
        if (!tq.deliver) continue;  // lost: q stays reachable via others
        if (!stamps_.mark(q)) continue;
        const int hop = cur.hop + 1;
        // Free-riders (adversary layer) never serve from their cache; the
        // role test is a single always-false branch when the layer is off.
        const bool has_chunk =
            !is_free_rider(q) && peers_[q].cache.contains(chunk);
        if (has_chunk && holder == net::kInvalidNode &&
            send(net::MessageType::kQueryReply, q, p, -1).deliver) {
          holder = q;
          holder_hop = hop;
        }
        if (hop < config_.max_hops) queue.push_back({q, cur.node, hop, 0.0});
      }
    }

    if (holder != net::kInvalidNode) {
      const double cost =
          config_.peer_s_per_chunk +
          2.0 * sample_delay_s(p, holder) * static_cast<double>(holder_hop);
      obs_search_end(span, p, 1, holder_hop, cost);
      response += cost;
      if (peer_served) *peer_served = true;
      if (report) ++result_.chunks_from_peers;
      if (config_.dynamic) {
        core::ResultInfo info;
        info.responder = holder;
        info.processing_time_saved_s = config_.warehouse_s_per_chunk - cost;
        peer.stats.add(holder,
                       benefit_.benefit(info) * adversary_benefit_weight(holder));
      }
    } else {
      obs_search_end(span, p, 0, -1, -1.0);
      response += config_.warehouse_s_per_chunk;
      if (report) ++result_.chunks_from_warehouse;
    }
    peer.cache.insert(chunk);
  }
  if (report) result_.response_time_s.add(response);
  return response;
}

void OlapSim::issue_query(net::NodeId p) {
  if (node_dead(p)) return;  // a crashed peer stops querying for good
  const ChunkId base = draw_query_base(p, rng());
  capture_query_arrival(p, base);
  if (reporting()) ++result_.queries;
  serve_chunks(p, base, reporting(), nullptr);
  sim_.schedule_in(interquery_.sample(rng()), des::Event{kOlapQuery, p, 0});
}

load::Served OlapSim::serve_injected_query(net::NodeId p, std::uint64_t item) {
  ChunkId base;
  if (item == load::kAnyItem) {
    base = draw_query_base(p, load_lane());
  } else {
    // Anchor the span at the requested chunk, clamped so it fits inside
    // the chunk's region (the same geometry closed-loop templates obey).
    const std::uint32_t chunks_per_region =
        config_.num_chunks / config_.num_regions;
    const auto chunk = static_cast<ChunkId>(item % config_.num_chunks);
    const std::uint32_t region = chunk / chunks_per_region;
    const std::uint32_t offset = chunk % chunks_per_region;
    base = region * chunks_per_region +
           std::min(offset, chunks_per_region - config_.query_span);
  }
  load::Served served;
  served.latency_s = serve_chunks(p, base, /*record=*/false, &served.hit);
  return served;
}

void OlapSim::update_neighbors(net::NodeId p) {
  if (node_dead(p)) return;  // crashed: no more reorganizations
  const auto plan = core::plan_update(
      peers_[p].stats, overlay_.out_neighbors(p),
      adversary_degree_bound(p, config_.num_neighbors),
      [p](net::NodeId n) { return n != p; });
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

OlapResult OlapSim::run() {
  // A resumed run takes its pending events from the snapshot and must not
  // draw the initial delays.  Updates start at a uniform phase within
  // their period.
  if (!resumed()) {
    for (net::NodeId p = 0; p < config_.num_peers; ++p) {
      sim_.schedule_in(interquery_.sample(rng()), des::Event{kOlapQuery, p, 0});
      if (config_.dynamic)
        sim_.schedule_in(rng().uniform(0.0, config_.update_period_s),
                         des::Event{kOlapUpdate, p, 0});
    }
  }
  run_until_horizon();
  result_.traffic = traffic();
  return result_;
}

void OlapSim::save_domain(snap::Writer::Out& out) const {
  for (const Peer& peer : peers_) {
    snap::put_lru(out, peer.cache);
    snap::put_stats_store(out, peer.stats);
  }
  // traffic is assigned at the end of run() from the restored ledger.
  out.u64(result_.queries);
  out.u64(result_.chunks_requested);
  out.u64(result_.chunks_local);
  out.u64(result_.chunks_from_peers);
  out.u64(result_.chunks_from_warehouse);
  snap::put_summary(out, result_.response_time_s);
}

void OlapSim::load_domain(snap::Reader::In& in) {
  for (Peer& peer : peers_) {
    snap::get_lru(in, peer.cache, config_.num_chunks);
    snap::get_stats_store(in, peer.stats, peers_.size());
  }
  result_.queries = in.u64();
  result_.chunks_requested = in.u64();
  result_.chunks_local = in.u64();
  result_.chunks_from_peers = in.u64();
  result_.chunks_from_warehouse = in.u64();
  snap::get_summary(in, result_.response_time_s);
}

void OlapSim::on_event(const des::Event& e) {
  const auto p = static_cast<net::NodeId>(e.a);
  switch (e.kind) {
    case kOlapQuery:
      issue_query(p);
      return;
    case kOlapUpdate:
      update_neighbors(p);
      sim_.schedule_in(config_.update_period_s, e);
      return;
    default:
      OverlayEngine::on_event(e);
  }
}

}  // namespace dsf::olap
