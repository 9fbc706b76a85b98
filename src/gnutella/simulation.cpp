#include "gnutella/simulation.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "core/graph_stats.h"
#include "core/unreachable.h"
#include "snap/codec.h"
#include "workload/user_profile.h"

namespace dsf::gnutella {

std::unique_ptr<core::BenefitFunction> make_benefit(BenefitKind kind) {
  switch (kind) {
    case BenefitKind::kBandwidthOverResults:
      return std::make_unique<core::BandwidthOverResults>();
    case BenefitKind::kUnit:
      return std::make_unique<core::UnitBenefit>();
    case BenefitKind::kInverseLatency:
      return std::make_unique<core::InverseLatency>();
  }
  core::unreachable_enum("gnutella::BenefitKind");
}

sim::EngineConfig Simulation::make_engine_config(const Config& config) {
  sim::require_positive("gnutella", "num_users", config.num_users);
  sim::require_positive("gnutella", "max_neighbors", config.max_neighbors);
  sim::require_positive("gnutella", "catalog.num_songs",
                        config.catalog.num_songs);
  sim::EngineConfig ec;
  ec.name = "gnutella";
  ec.num_nodes = config.num_users;
  ec.seed = config.seed;
  ec.rng_layout = sim::RngLayout::kFourLane;
  ec.relation = core::RelationKind::kSymmetric;
  ec.out_capacity = config.max_neighbors;
  ec.in_capacity = config.max_neighbors;
  ec.sim_hours = config.sim_hours;
  ec.warmup_hours = config.warmup_hours;
  ec.event_kinds = kGnuProbe + 1 - kKeyedUserBase;
  ec.schedule_values = {{"probe_period_s", config.probe_period_s}};
  return ec;
}

Simulation::Simulation(const Config& config)
    : sim::OverlayEngine(make_engine_config(config)),
      config_(config),
      catalog_(config.catalog),
      library_gen_(catalog_, config.library),
      query_gen_(catalog_),
      session_(config.session),
      benefit_fn_(make_benefit(config.benefit)) {
  des::Rng profile_rng = rng().split();
  workload::ProfileGenerator profiles(catalog_, config.user_zipf_theta);
  hot_.resize(config.num_users);
  cold_.resize(config.num_users);
  libraries_.reserve(config.num_users,
                     static_cast<std::size_t>(
                         static_cast<double>(config.num_users) *
                         config.library.mean_size));
  for (auto& c : cold_) {
    c.profile = profiles.generate(profile_rng);
    // Generation order and RNG draws are identical to the per-user Library
    // path; the pool only changes where the sorted songs end up living.
    libraries_.append(library_gen_.generate(c.profile, profile_rng));
  }

  if (config.invitation_policy == core::InvitationPolicy::kSummaryGated) {
    // Libraries never change, so each user's digest is built once.  ~1%
    // false positives keeps the benefit estimate honest at window size 32.
    digests_.reserve(config.num_users);
    for (net::NodeId u = 0; u < config.num_users; ++u) {
      const auto songs = libraries_.base(u);
      digests_.emplace_back(std::max<std::size_t>(songs.size(), 16), 0.01);
      for (workload::SongId s : songs) digests_.back().insert(s);
    }
  }
}

std::uint32_t Simulation::summary_estimate(net::NodeId v, net::NodeId c) const {
  std::uint32_t overlap = 0;
  for (workload::SongId s : cold_[v].recent_queries)
    if (digests_[c].might_contain(s)) ++overlap;
  return overlap;
}

void Simulation::prime() {
  // Decide every user's initial state first so the bootstrap graph is
  // built over the full initial on-line population.
  const std::vector<net::NodeId> initially_online =
      draw_initial_online([this](net::NodeId) {
        return session_.draw_initial_online(session_rng());
      });
  for (net::NodeId u : initially_online) {
    hot_[u].online = true;
    hot_[u].online_pos = static_cast<std::uint32_t>(online_nodes_.size());
    online_nodes_.push_back(u);
  }
  for (net::NodeId u : initially_online) fill_with_random_neighbors(u);
  for (net::NodeId u = 0; u < hot_.size(); ++u) {
    UserHot& st = hot_[u];
    if (st.online) {
      st.session_due_s =
          sim_.schedule_in(session_.draw_online_duration(session_rng()),
                           des::Event{kGnuSession, u, 0});
      schedule_next_query(u);
    } else {
      st.session_due_s =
          sim_.schedule_in(session_.draw_offline_duration(session_rng()),
                           des::Event{kGnuSession, u, 0});
    }
  }
}

void Simulation::probe_overlay() {
  const auto online = [this](net::NodeId n) { return hot_[n].online; };
  ProbeSample sample;
  sample.time_s = sim_.now();
  sample.online = online_nodes_.size();
  sample.mean_degree = core::mean_degree(overlay_, online);
  sample.degree_gini = core::degree_gini(overlay_, online);
  sample.clustering = core::clustering_coefficient(overlay_, online);
  sample.same_favorite = core::same_attribute_fraction(
      overlay_, online,
      [this](net::NodeId n) { return cold_[n].profile.favorite; });
  result_.probes.push_back(sample);
}

RunResult Simulation::run() {
  // A resumed run skips priming: hot/cold state, roster and pending events
  // come from the snapshot.
  if (!resumed()) {
    prime();
    if (config_.probe_period_s > 0.0)
      sim_.schedule_in(config_.probe_period_s, des::Event{kGnuProbe, 0, 0});
  }
  result_.events_executed = run_until_horizon();
  result_.traffic = traffic();
  return result_;
}

void Simulation::fill_with_random_neighbors(net::NodeId u,
                                             std::size_t target) {
  if (online_nodes_.size() < 2) return;
  // A bounded number of random probes; when the population is nearly
  // saturated some probes fail, exactly as a real bootstrap would.
  fill_random_neighbors(
      u, target, default_bootstrap_attempts(),
      [this] {
        return online_nodes_[topo_rng().uniform_int(online_nodes_.size())];
      },
      [this, u](net::NodeId v) { on_link_formed(u, v); });
}

void Simulation::on_link_formed(net::NodeId u, net::NodeId v) {
  // Local indices must be maintained: a new link triggers a content-digest
  // exchange in both directions (Yang & GM's index-update cost).  The link
  // stands whatever the digests' fate.
  if (config_.search_strategy == SearchStrategy::kLocalIndices) {
    send(net::MessageType::kExploreReply, u, v, -1);
    send(net::MessageType::kExploreReply, v, u, -1);
  }
}

void Simulation::log_in(net::NodeId u) {
  UserHot& st = hot_[u];
  assert(!st.online);
  st.online = true;
  st.online_pos = static_cast<std::uint32_t>(online_nodes_.size());
  online_nodes_.push_back(u);
  if (!config_.persist_stats_across_sessions) cold_[u].stats.clear();
  st.reconfig_count = 0;

  // Gnutella bootstrap: the rendezvous server hands out random on-line
  // addresses; the neighborhood starts random in both schemes.
  fill_with_random_neighbors(u);

  st.session_due_s =
      sim_.schedule_in(session_.draw_online_duration(session_rng()),
                       des::Event{kGnuSession, u, 0});
  schedule_next_query(u);
}

void Simulation::log_off(net::NodeId u) {
  UserHot& st = hot_[u];
  assert(st.online);
  st.online = false;
  st.query_due_s = -1.0;  // a log-off ends the user's queries

  // Swap-pop from the on-line roster.
  const std::uint32_t pos = st.online_pos;
  const net::NodeId moved = online_nodes_.back();
  online_nodes_[pos] = moved;
  hot_[moved].online_pos = pos;
  online_nodes_.pop_back();

  // Sever all overlay links; ex-neighbors react per scheme.
  const std::vector<net::NodeId> affected = overlay_.isolate(u);
  for (net::NodeId v : affected) {
    if (!hot_[v].online) continue;  // defensive; overlay holds online only
    if (config_.dynamic) {
      // §4.1(v): neighbor log-offs trigger the update process.
      reconfigure(v);
      hot_[v].reconfig_count = 0;
    } else {
      // Static Gnutella: replace the lost neighbor with a random peer.
      fill_with_random_neighbors(v);
    }
  }

  st.session_due_s =
      sim_.schedule_in(session_.draw_offline_duration(session_rng()),
                       des::Event{kGnuSession, u, 0});
}

void Simulation::schedule_next_query(net::NodeId u) {
  hot_[u].query_due_s =
      sim_.schedule_in(session_.draw_interquery_gap(session_rng()),
                       des::Event{kGnuQuery, u, 0});
}

void Simulation::issue_query(net::NodeId u) {
  UserCold& st = cold_[u];

  // By default users search for songs they do not already own (the
  // preference distribution conditioned on non-ownership by rejection);
  // with exclude_owned_songs=false, Send Query floods the raw draw, as in
  // Algo 5's pseudo-code.
  workload::SongId song = query_gen_.draw(st.profile, query_rng());
  if (config_.exclude_owned_songs) {
    bool found = !libraries_.contains(u, song);
    for (int tries = 0; tries < 64 && !found; ++tries) {
      song = query_gen_.draw(st.profile, query_rng());
      found = !libraries_.contains(u, song);
    }
    if (!found) {
      ++result_.local_hits;
      schedule_next_query(u);
      return;
    }
  }

  if (config_.invitation_policy == core::InvitationPolicy::kSummaryGated) {
    if (st.recent_queries.size() < kRecentQueryWindow) {
      st.recent_queries.push_back(song);
    } else {
      st.recent_queries[st.recent_pos] = song;
      st.recent_pos = (st.recent_pos + 1) % kRecentQueryWindow;
    }
  }

  const core::SearchOutcome outcome = search_song(u, song);

  const des::SimTime now = sim_.now();
  result_.messages.add(now, outcome.query_messages);
  if (reporting()) {
    ++result_.queries_issued;
    result_.messages_reported += outcome.query_messages;
    result_.nodes_reached.add(outcome.nodes_reached);
    const bool favorite = catalog_.category_of(song) == st.profile.favorite;
    ++(favorite ? result_.queries_favorite : result_.queries_side);
    if (outcome.satisfied())
      ++(favorite ? result_.hits_favorite : result_.hits_side);
  }
  if (outcome.satisfied()) {
    result_.hits.add(now, 1);
    result_.results.add(now, outcome.hits.size());
    if (reporting()) {
      ++result_.hits_reported;
      result_.results_reported += outcome.hits.size();
      const double delay = outcome.first_result_delay_s();
      result_.first_result_delay_s.add(delay);
      result_.first_result_delay_hist.add(delay);
    }
    // Extension: the user downloads the song and becomes a holder.  (The
    // summary-gated digests deliberately stay as built at start-up —
    // digests in deployed systems are periodically rebuilt, not updated
    // per download.)
    if (config_.library_growth) libraries_.add(u, song);
  }

  if (config_.dynamic) feed_statistics(u, outcome);
  schedule_next_query(u);
}

load::Served Simulation::serve_injected_query(net::NodeId u,
                                              std::uint64_t item) {
  const workload::SongId song =
      item == load::kAnyItem
          ? query_gen_.draw(cold_[u].profile, load_lane())
          : static_cast<workload::SongId>(item % catalog_.num_songs());

  // Injected traffic is real traffic to the network (ledger, checker,
  // flight recorder) but is reported through LoadStats, not the
  // closed-loop RunResult series.
  const core::SearchOutcome outcome = search_song(u, song);
  load::Served served;
  served.latency_s = config_.query_timeout_s;  // a miss serves the timeout
  if (outcome.satisfied()) {
    served.hit = true;
    served.latency_s = outcome.first_result_delay_s();
  }

  // Injected results feed Algo 5's statistics exactly like the user's
  // own: the saturation experiments compare reconfiguration's effect
  // under overload, so the control loop must see the load.
  if (config_.dynamic) feed_statistics(u, outcome);
  return served;
}

void Simulation::feed_statistics(net::NodeId u,
                                 const core::SearchOutcome& outcome) {
  // Combined search & exploration (§4.1): every result feeds statistics.
  UserCold& st = cold_[u];
  const auto total = static_cast<std::uint32_t>(outcome.hits.size());
  for (const auto& hit : outcome.hits) {
    core::ResultInfo info;
    info.responder = hit.node;
    info.bandwidth_kbps = config_.benefit_bandwidth_weights[static_cast<int>(
        delay_.node_class(hit.node))];
    info.latency_s = hit.reply_at_s;
    info.total_results = total;
    st.stats.add(hit.node, benefit_of(info));
  }
  if (config_.reconfig_threshold > 0 &&
      ++hot_[u].reconfig_count >= config_.reconfig_threshold) {
    reconfigure(u);
    hot_[u].reconfig_count = 0;
  }
}

double Simulation::ranked_score(net::NodeId n,
                                workload::SongId song) const noexcept {
  // Holders get a deterministic relevance in (0, 1] keyed on
  // (seed, holder, song) — e.g. replica quality or bitrate.  Non-holders
  // score 0 and can never contribute, which keeps the ranked scheme's
  // hit/miss verdict identical to the flood's.
  if (!libraries_.contains(n, song)) return 0.0;
  const std::uint64_t bits =
      des::hash_seed(des::hash_seed(config_.seed, 0x7a5cede5u) ^ n, song);
  return (static_cast<double>(bits >> 11) + 1.0) * 0x1.0p-53;
}

core::SearchOutcome Simulation::search_song(net::NodeId u,
                                            workload::SongId song) {
  core::SearchParams params;
  params.max_hops = config_.max_hops;
  params.forward_when_hit = false;  // §4.1: repliers do not propagate
  params.timeout_s = config_.query_timeout_s;
  return search(
      config_.search_strategy, params, config_.top_k, config_.directed_fanout,
      u, song, cold_[u].stats,
      [this, song](net::NodeId n) { return libraries_.contains(n, song); },
      // kTopK's score doubles as the one-hop digest bound.
      [this, song](net::NodeId n) { return ranked_score(n, song); });
}

void Simulation::on_peer_crashed(net::NodeId u) {
  UserHot& st = hot_[u];
  st.query_due_s = -1.0;
  st.session_due_s = -1.0;  // a crashed peer never comes back
  if (!st.online) return;
  st.online = false;
  // Swap-pop from the on-line roster so the bootstrap server stops
  // handing out the crashed peer's address.  The overlay is deliberately
  // left alone: no isolate(), no neighbor reactions.
  const std::uint32_t pos = st.online_pos;
  const net::NodeId moved = online_nodes_.back();
  online_nodes_[pos] = moved;
  hot_[moved].online_pos = pos;
  online_nodes_.pop_back();
}

bool Simulation::invite(net::NodeId u, net::NodeId v) {
  UserHot& target = hot_[v];
  // A lost invitation (or a crashed target) elicits no reply at all.
  if (!send(net::MessageType::kInvitation, u, v, -1).deliver) return false;
  const auto tr = send(net::MessageType::kInvitationReply, v, u, -1);
  if (!target.online) return false;
  // A lost reply means u never learns of the acceptance: the exchange
  // fails (retry/timeout recovery is ROADMAP work, not modeled here).
  if (!tr.deliver) return false;

  core::InvitationDecision decision;
  if (config_.invitation_policy == core::InvitationPolicy::kSummaryGated) {
    // §3.4 option (b): the invitation carries u's library digest; v ranks
    // u against its current neighbors by how much of its recent demand
    // each one could have served.
    const auto& in_list = overlay_.lists(v).in();
    if (std::find(in_list.begin(), in_list.end(), u) != in_list.end()) {
      decision.accept = false;
    } else if (in_list.size() < config_.max_neighbors) {
      decision.accept = true;
    } else {
      net::NodeId worst = net::kInvalidNode;
      std::uint32_t worst_estimate = 0;
      for (net::NodeId w : in_list) {
        const std::uint32_t e = summary_estimate(v, w);
        if (worst == net::kInvalidNode || e < worst_estimate) {
          worst = w;
          worst_estimate = e;
        }
      }
      if (summary_estimate(v, u) > worst_estimate) {
        decision.accept = true;
        decision.evict = worst;
      }
    }
  } else {
    decision = core::decide_invitation(cold_[v].stats, u,
                                       overlay_.lists(v).in(),
                                       config_.max_neighbors,
                                       config_.invitation_policy);
  }
  if (!decision.accept) return false;

  if (decision.evict != net::kInvalidNode) evict(v, decision.evict);
  if (!overlay_.link(u, v)) return false;  // u saturated meanwhile
  on_link_formed(u, v);
  ++result_.invitations_accepted;
  // Accepting resets the invited node's own counter to damp cascades
  // (§4.1); the ablation knob leaves the counter running.
  if (config_.damp_cascades) target.reconfig_count = 0;

  // §3.4 option (a): the acceptance is provisional — after the trial
  // period, v keeps u only if the statistics gathered meanwhile rank u
  // above at least one other neighbor.
  if (config_.invitation_policy == core::InvitationPolicy::kTrialPeriod)
    sim_.schedule_in(config_.trial_period_s, des::Event{kGnuTrial, u, v});
  return true;
}

void Simulation::evaluate_trial(net::NodeId inviter, net::NodeId invitee) {
  // The relationship may already be gone (log-off, eviction); only a
  // still-standing link is evaluated.
  if (!hot_[invitee].online || !hot_[inviter].online) return;
  if (!overlay_.lists(invitee).has_out(inviter)) return;

  const auto& neighbors = overlay_.out_neighbors(invitee);
  const core::StatsStore& stats = cold_[invitee].stats;
  bool beats_someone = false;
  for (net::NodeId w : neighbors) {
    if (w == inviter) continue;
    if (stats.benefit_of(inviter) > stats.benefit_of(w)) {
      beats_someone = true;
      break;
    }
  }
  // A sole neighbor is kept unconditionally — terminating it would
  // disconnect the node for nothing.
  if (neighbors.size() <= 1) beats_someone = true;
  if (!beats_someone) {
    ++result_.trials_rejected;
    evict(invitee, inviter);
  } else {
    ++result_.trials_kept;
  }
}

void Simulation::evict(net::NodeId evictor, net::NodeId evictee) {
  const auto t = send(net::MessageType::kEviction, evictor, evictee, -1);
  // The evictor severs the link either way (the symmetric table is the
  // ground truth), but a lost eviction — or a crashed evictee — means the
  // other side never runs its Process Eviction reaction.
  overlay_.unlink(evictor, evictee);
  ++result_.evictions;
  if (!t.deliver) return;
  // Process Eviction (§4.1): the evicted node resets the evictor's
  // statistics so it does not try to reconnect in the near future; it
  // restores basic connectivity up to the configured floor and leaves the
  // remaining slots to the reorganization machinery.
  cold_[evictee].stats.reset(evictor);
  if (config_.eviction_refill_floor > 0)
    fill_with_random_neighbors(evictee, config_.eviction_refill_floor);
}

void Simulation::reconfigure(net::NodeId u) {
  ++result_.reconfigurations;
  UserCold& st = cold_[u];
  const auto plan = core::plan_update(
      st.stats, overlay_.out_neighbors(u), config_.max_neighbors,
      [this, u](net::NodeId n) { return n != u && hot_[n].online; });

  // §4.3: at most `max_exchanges_per_reconfig` neighbors are exchanged per
  // reconfiguration (one, in the paper's experiments).  Evictions happen
  // only to make room for an accepted addition, starting from the least
  // beneficial current neighbor.
  std::uint32_t exchanges = 0;
  for (net::NodeId v : plan.additions) {
    if (exchanges >= config_.max_exchanges_per_reconfig) break;
    if (overlay_.lists(u).out_full()) {
      const net::NodeId worst =
          core::least_beneficial(st.stats, overlay_.out_neighbors(u));
      if (worst == net::kInvalidNode) break;
      evict(u, worst);
    }
    invite(u, v);
    ++exchanges;
  }
  // Remaining free slots are refilled through the rendezvous server, the
  // same exploration primitive both schemes use at login.
  fill_with_random_neighbors(u);
}

void Simulation::save_domain(snap::Writer::Out& out) const {
  for (const UserHot& h : hot_) {
    out.u8(h.online ? 1 : 0);
    out.f64(h.query_due_s);
    out.f64(h.session_due_s);
    out.u32(h.reconfig_count);
    out.u32(h.online_pos);
  }
  out.u64(online_nodes_.size());
  for (net::NodeId u : online_nodes_) out.u32(u);
  for (const UserCold& c : cold_) {
    snap::put_stats_store(out, c.stats);
    out.u64(c.recent_queries.size());
    for (workload::SongId s : c.recent_queries) out.u64(s);
    out.u64(c.recent_pos);
  }
  // Downloaded songs (library_growth): spill lists keyed by user, sorted so
  // identical state writes identical bytes.
  std::vector<std::uint32_t> spill_users;
  spill_users.reserve(libraries_.spill().size());
  for (const auto& [u, songs] : libraries_.spill()) spill_users.push_back(u);
  std::sort(spill_users.begin(), spill_users.end());
  out.u64(spill_users.size());
  for (std::uint32_t u : spill_users) {
    const auto& songs = libraries_.spill().at(u);
    out.u32(u);
    out.u64(songs.size());
    for (workload::SongId s : songs) out.u64(s);
  }
  // Result accumulators.  events_executed and traffic are assigned at the
  // end of run() (from engine state that the core section restores), so
  // they are not part of the domain image.
  snap::put_time_series(out, result_.hits);
  snap::put_time_series(out, result_.messages);
  snap::put_time_series(out, result_.results);
  snap::put_summary(out, result_.first_result_delay_s);
  snap::put_histogram(out, result_.first_result_delay_hist);
  out.u64(result_.queries_issued);
  out.u64(result_.hits_reported);
  out.u64(result_.messages_reported);
  out.u64(result_.results_reported);
  out.u64(result_.local_hits);
  snap::put_summary(out, result_.nodes_reached);
  out.u64(result_.queries_favorite);
  out.u64(result_.hits_favorite);
  out.u64(result_.queries_side);
  out.u64(result_.hits_side);
  out.u64(result_.reconfigurations);
  out.u64(result_.invitations_accepted);
  out.u64(result_.evictions);
  out.u64(result_.trials_kept);
  out.u64(result_.trials_rejected);
  out.u64(result_.probes.size());
  for (const ProbeSample& p : result_.probes) {
    out.f64(p.time_s);
    out.f64(p.mean_degree);
    out.f64(p.degree_gini);
    out.f64(p.same_favorite);
    out.f64(p.clustering);
    out.u64(p.online);
  }
}

void Simulation::load_domain(snap::Reader::In& in) {
  const auto due_time = [&](net::NodeId u, const char* field) {
    const double t = in.f64();
    if (!std::isfinite(t))
      throw snap::SnapshotError("gnutella: " + std::string(field) +
                                " of user " + std::to_string(u) +
                                " is not finite");
    return t;
  };
  for (net::NodeId u = 0; u < hot_.size(); ++u) {
    UserHot& h = hot_[u];
    h.online = in.u8() != 0;
    h.query_due_s = due_time(u, "query_due_s");
    h.session_due_s = due_time(u, "session_due_s");
    h.reconfig_count = in.u32();
    h.online_pos = in.u32();
  }
  online_nodes_.clear();
  const std::size_t online_count = in.count(4);
  online_nodes_.reserve(online_count);
  for (std::size_t i = 0; i < online_count; ++i) {
    const net::NodeId u = in.u32();
    if (u >= hot_.size())
      throw snap::SnapshotError("gnutella: on-line roster entry out of range");
    online_nodes_.push_back(u);
  }
  // The roster swap-pop indexes it by online_pos: each on-line user's
  // position must name that user, and the roster holds no one else.
  std::size_t online_users = 0;
  for (net::NodeId u = 0; u < hot_.size(); ++u) {
    if (!hot_[u].online) continue;
    ++online_users;
    const std::uint32_t pos = hot_[u].online_pos;
    if (pos >= online_nodes_.size() || online_nodes_[pos] != u)
      throw snap::SnapshotError("gnutella: online_pos " + std::to_string(pos) +
                                " of user " + std::to_string(u) +
                                " does not point at it in the on-line roster");
  }
  if (online_users != online_nodes_.size())
    throw snap::SnapshotError("gnutella: on-line roster holds " +
                              std::to_string(online_nodes_.size()) +
                              " entries for " + std::to_string(online_users) +
                              " on-line users");
  for (UserCold& c : cold_) {
    snap::get_stats_store(in, c.stats, hot_.size());
    c.recent_queries.clear();
    const std::uint64_t nq = in.u64();
    if (nq > kRecentQueryWindow)
      throw snap::SnapshotError("gnutella: recent-query window overflow");
    c.recent_queries.reserve(static_cast<std::size_t>(nq));
    for (std::uint64_t i = 0; i < nq; ++i)
      c.recent_queries.push_back(static_cast<workload::SongId>(in.u64()));
    const std::uint64_t pos = in.u64();
    if (pos >= kRecentQueryWindow)
      throw snap::SnapshotError("gnutella: recent_pos " + std::to_string(pos) +
                                " outside the recent-query window");
    c.recent_pos = static_cast<std::size_t>(pos);
  }
  const std::uint64_t spill_users = in.u64();
  for (std::uint64_t i = 0; i < spill_users; ++i) {
    const std::uint32_t u = in.u32();
    if (u >= hot_.size())
      throw snap::SnapshotError("gnutella: spill-list user out of range");
    const std::uint64_t nsongs = in.u64();
    for (std::uint64_t j = 0; j < nsongs; ++j)
      libraries_.add(u, static_cast<workload::SongId>(in.u64()));
  }
  snap::get_time_series(in, result_.hits);
  snap::get_time_series(in, result_.messages);
  snap::get_time_series(in, result_.results);
  snap::get_summary(in, result_.first_result_delay_s);
  snap::get_histogram(in, result_.first_result_delay_hist);
  result_.queries_issued = in.u64();
  result_.hits_reported = in.u64();
  result_.messages_reported = in.u64();
  result_.results_reported = in.u64();
  result_.local_hits = in.u64();
  snap::get_summary(in, result_.nodes_reached);
  result_.queries_favorite = in.u64();
  result_.hits_favorite = in.u64();
  result_.queries_side = in.u64();
  result_.hits_side = in.u64();
  result_.reconfigurations = in.u64();
  result_.invitations_accepted = in.u64();
  result_.evictions = in.u64();
  result_.trials_kept = in.u64();
  result_.trials_rejected = in.u64();
  result_.probes.clear();
  // One probe: five f64 fields and a u64 population.
  const std::size_t nprobes = in.count(5 * 8 + 8);
  result_.probes.reserve(nprobes);
  for (std::size_t i = 0; i < nprobes; ++i) {
    ProbeSample p;
    p.time_s = in.f64();
    p.mean_degree = in.f64();
    p.degree_gini = in.f64();
    p.same_favorite = in.f64();
    p.clustering = in.f64();
    p.online = static_cast<std::size_t>(in.u64());
    result_.probes.push_back(p);
  }
}

void Simulation::on_event(const des::Event& e) {
  const auto u = static_cast<net::NodeId>(e.a);
  switch (e.kind) {
    case kGnuSession:
      if (sim_.now() != hot_[u].session_due_s) return;  // superseded
      if (hot_[u].online)
        log_off(u);
      else
        log_in(u);
      return;
    case kGnuQuery:
      if (sim_.now() != hot_[u].query_due_s) return;  // superseded
      issue_query(u);
      return;
    case kGnuTrial:
      evaluate_trial(u, static_cast<net::NodeId>(e.b));
      return;
    case kGnuProbe:
      probe_overlay();
      sim_.schedule_in(config_.probe_period_s, e);
      return;
    default:
      OverlayEngine::on_event(e);
  }
}

}  // namespace dsf::gnutella
