#include "diglib/diglib_sim.h"

#include "core/update.h"
#include "snap/codec.h"

namespace dsf::diglib {

sim::EngineConfig DigLibSim::make_engine_config(const DigLibConfig& config) {
  sim::require_positive("diglib", "num_repositories", config.num_repositories);
  sim::require_positive("diglib", "num_neighbors", config.num_neighbors);
  sim::require_divides("diglib", "num_docs", config.num_docs, "num_topics",
                       config.num_topics);
  sim::require_positive("diglib", "query_timeout_s", config.query_timeout_s);
  if (config.search_strategy == sim::SearchStrategyKind::kTopK)
    sim::require_positive("diglib", "top_k", config.top_k);
  sim::EngineConfig ec;
  ec.name = "diglib";
  ec.num_nodes = config.num_repositories;
  ec.seed = config.seed;
  ec.rng_layout = sim::RngLayout::kCompact;
  ec.relation = config.mode == ListMode::kAllToAll
                    ? core::RelationKind::kAllToAll
                    : core::RelationKind::kAsymmetric;
  ec.out_capacity = config.num_neighbors;
  ec.in_capacity = config.num_repositories;
  ec.sim_hours = config.sim_hours;
  ec.warmup_hours = config.warmup_hours;
  ec.event_kinds = kLibUpdate + 1 - kKeyedUserBase;
  ec.schedule_values = {{"mode", static_cast<double>(config.mode)},
                        {"update_period_s", config.update_period_s}};
  return ec;
}

DigLibSim::DigLibSim(const DigLibConfig& config)
    : sim::OverlayEngine(make_engine_config(config)),
      config_(config),
      holding_words_((std::size_t{config.num_docs} + 63) / 64),
      holdings_(config.num_repositories * holding_words_, 0),
      copy_count_(config.num_docs, 0),
      doc_zipf_(config.num_docs / config.num_topics, config.zipf_theta),
      interquery_(config.mean_interquery_s) {
  // Build holdings: topic_share of a repository's documents come from its
  // home topic, the rest uniformly from other topics; selection within a
  // topic follows the popularity profile, so popular documents are widely
  // replicated (recall < 1 is then a real retrieval deficit, not a
  // scarcity artifact).
  repos_.resize(config.num_repositories);
  for (net::NodeId r = 0; r < config.num_repositories; ++r) {
    Repository& repo = repos_[r];
    repo.topic = r % config.num_topics;
    std::uint64_t* bits = &holdings_[r * holding_words_];
    std::uint32_t held = 0;
    int attempts = static_cast<int>(config.holdings) * 50;
    while (held < config.holdings && attempts-- > 0) {
      const DocId d = draw_doc(repo.topic);
      const std::uint64_t bit = std::uint64_t{1} << (d % 64);
      if (bits[d / 64] & bit) continue;  // a repeat draw
      bits[d / 64] |= bit;
      ++held;
      ++copy_count_[d];
    }
  }

  // Initial lists.
  if (config.mode == ListMode::kAllToAll) {
    for (net::NodeId a = 0; a < config.num_repositories; ++a)
      for (net::NodeId b = 0; b < config.num_repositories; ++b)
        if (a != b) overlay_.link(a, b);
  } else {
    for (net::NodeId r = 0; r < config.num_repositories; ++r) {
      fill_random_neighbors(
          r, config.num_neighbors, default_bootstrap_attempts(),
          [this] {
            return static_cast<net::NodeId>(
                rng().uniform_int(config_.num_repositories));
          },
          [](net::NodeId) {});
    }
  }
}

DocId DigLibSim::draw_doc(std::uint32_t home_topic, des::Rng& r) {
  const std::uint32_t docs_per_topic = config_.num_docs / config_.num_topics;
  std::uint32_t topic = home_topic;
  if (!r.bernoulli(config_.topic_share))
    topic = static_cast<std::uint32_t>(r.uniform_int(config_.num_topics));
  const auto rank = static_cast<std::uint32_t>(doc_zipf_.sample(r));
  return topic * docs_per_topic + rank;
}

bool DigLibSim::holds(net::NodeId r, DocId doc) const {
  return (holdings_[r * holding_words_ + doc / 64] >> (doc % 64)) & 1;
}

core::SearchOutcome DigLibSim::search_doc(net::NodeId from, DocId doc) {
  // Extensive search (§3.2): the goal is many copies, so holders keep
  // forwarding; all-to-all needs a single hop by construction.
  core::SearchParams params;
  params.max_hops = config_.mode == ListMode::kAllToAll ? 1 : config_.max_hops;
  params.forward_when_hit = true;

  const auto outcome = search(
      config_.search_strategy, params, config_.top_k,
      /*directed_fanout=*/config_.num_neighbors, from, doc,
      repos_[from].stats,
      [this, doc](net::NodeId n) {
        // Free-riders (adversary layer) answer nothing; always false when
        // off.
        return !is_free_rider(n) && holds(n, doc);
      },
      // kTopK ranks holders by a deterministic per-(repository, document)
      // relevance in (0, 1] — the retrieval score a ranked federation
      // would compute locally.  Non-holders and free-riders score 0.
      [this, doc](net::NodeId n) {
        if (is_free_rider(n) || !holds(n, doc)) return 0.0;
        const std::uint64_t bits = des::hash_seed(
            des::hash_seed(config_.seed, 0x2b5eced5u) ^ n, doc);
        return (static_cast<double>(bits >> 11) + 1.0) * 0x1.0p-53;
      });

  if (config_.mode == ListMode::kAdaptive) {
    for (const auto& hit : outcome.hits) {
      core::ResultInfo info;
      info.responder = hit.node;
      // Result-count dilution (the paper's R denominator): a repository
      // that answers queries nobody else can answer is worth more than
      // one of many holders of a ubiquitous document.
      info.items = 1.0 / static_cast<double>(outcome.hits.size());
      info.latency_s = hit.reply_at_s;
      repos_[from].stats.add(
          hit.node, benefit_.benefit(info) * adversary_benefit_weight(hit.node));
    }
  }
  return outcome;
}

void DigLibSim::issue_query(net::NodeId r) {
  if (node_dead(r)) return;  // a crashed repository stops querying for good
  const DocId doc = draw_doc(repos_[r].topic);
  capture_query_arrival(r, doc);
  const auto outcome = search_doc(r, doc);
  if (reporting()) {
    ++result_.queries;
    if (outcome.satisfied()) ++result_.satisfied;
    result_.messages_per_query.add(
        static_cast<double>(outcome.query_messages));
    result_.copies_found += outcome.hits.size();
    // Copies available elsewhere (the initiator's own copy, if any, does
    // not count: it would not be searched for).
    std::uint32_t available = copy_count_[doc];
    if (holds(r, doc) && available > 0) --available;
    result_.copies_available += available;
    if (outcome.satisfied())
      result_.first_result_delay_s.add(outcome.first_result_delay_s());
  }
  sim_.schedule_in(interquery_.sample(rng()), des::Event{kLibQuery, r, 0});
}

load::Served DigLibSim::serve_injected_query(net::NodeId r,
                                             std::uint64_t item) {
  const DocId doc = item == load::kAnyItem
                        ? draw_doc(repos_[r].topic, load_lane())
                        : static_cast<DocId>(item % config_.num_docs);
  const auto outcome = search_doc(r, doc);
  load::Served served;
  served.hit = outcome.satisfied();
  served.latency_s =
      served.hit ? outcome.first_result_delay_s() : config_.query_timeout_s;
  return served;
}

void DigLibSim::update_neighbors(net::NodeId r) {
  if (node_dead(r)) return;  // crashed: no more reorganizations
  Repository& repo = repos_[r];

  // Exploration first (Algo 2): rotate the designated random link so the
  // statistics keep meeting repositories outside the learned set.  In a
  // churnless federation this is the only source of discovery — without
  // it the benefit-driven slots collapse same-topic repositories into a
  // clique whose 2-hop reach is the clique itself.
  if (repo.exploration_link != net::kInvalidNode) {
    overlay_.unlink(r, repo.exploration_link);
    repo.exploration_link = net::kInvalidNode;
  }

  // Then one learned exchange per update (the lesson of the Gnutella case
  // study; see bench_ablation_exchange), over the non-exploration slots.
  // Capacity-aware peers (adversary layer) reserve the exploration slot out
  // of their *bounded* degree.
  const std::size_t learned_cap =
      adversary_degree_bound(r, config_.num_neighbors) - 1;
  const auto plan = core::plan_update(
      repo.stats, overlay_.out_neighbors(r), learned_cap,
      [r](net::NodeId n) { return n != r; });
  if (!plan.additions.empty() &&
      !overlay_.lists(r).has_out(plan.additions.front())) {
    const net::NodeId cand = plan.additions.front();
    // The invitation must actually reach the candidate (it may be
    // crashed, or the message may be lost) before any slot is freed.
    if (send(net::MessageType::kInvitation, r, cand, -1).deliver) {
      if (overlay_.lists(r).out().size() >= learned_cap) {
        const net::NodeId worst =
            core::least_beneficial(repo.stats, overlay_.out_neighbors(r));
        if (worst != net::kInvalidNode) {
          overlay_.unlink(r, worst);
          // Notification only: the unlink stands even if it is lost.
          send(net::MessageType::kEviction, r, worst, -1);
        }
      }
      overlay_.link(r, cand);
    }
  }

  // Install the new exploration link: link first, then probe the target;
  // an unanswered probe undoes the link and the next target is tried.
  int attempts = 8;
  while (attempts-- > 0) {
    const auto q =
        static_cast<net::NodeId>(rng().uniform_int(config_.num_repositories));
    if (q == r || overlay_.lists(r).has_out(q)) continue;
    if (!overlay_.link(r, q)) continue;
    if (!send(net::MessageType::kPing, r, q, -1).deliver) {
      overlay_.unlink(r, q);
      continue;
    }
    repo.exploration_link = q;
    break;
  }

  // Statistics decay so the ranking tracks the current overlay rather
  // than compounding forever.
  repo.stats.decay(0.5);
}

DigLibResult DigLibSim::run() {
  // A resumed run takes its pending events from the snapshot and must not
  // draw the initial delays.  Updates start at a uniform phase within
  // their period.
  if (!resumed()) {
    for (net::NodeId r = 0; r < config_.num_repositories; ++r) {
      sim_.schedule_in(interquery_.sample(rng()), des::Event{kLibQuery, r, 0});
      if (config_.mode == ListMode::kAdaptive)
        sim_.schedule_in(rng().uniform(0.0, config_.update_period_s),
                         des::Event{kLibUpdate, r, 0});
    }
  }
  run_until_horizon();
  result_.traffic = traffic();
  return result_;
}

void DigLibSim::save_domain(snap::Writer::Out& out) const {
  for (const Repository& repo : repos_) {
    snap::put_stats_store(out, repo.stats);
    out.u32(repo.exploration_link);
  }
  // traffic is assigned at the end of run() from the restored ledger.
  out.u64(result_.queries);
  out.u64(result_.satisfied);
  out.u64(result_.copies_found);
  out.u64(result_.copies_available);
  snap::put_summary(out, result_.first_result_delay_s);
  snap::put_summary(out, result_.messages_per_query);
}

void DigLibSim::load_domain(snap::Reader::In& in) {
  for (Repository& repo : repos_) {
    snap::get_stats_store(in, repo.stats, repos_.size());
    repo.exploration_link = in.u32();
    if (repo.exploration_link != net::kInvalidNode &&
        repo.exploration_link >= repos_.size())
      throw snap::SnapshotError("diglib: exploration link " +
                                std::to_string(repo.exploration_link) +
                                " out of range");
  }
  result_.queries = in.u64();
  result_.satisfied = in.u64();
  result_.copies_found = in.u64();
  result_.copies_available = in.u64();
  snap::get_summary(in, result_.first_result_delay_s);
  snap::get_summary(in, result_.messages_per_query);
}

void DigLibSim::on_event(const des::Event& e) {
  const auto r = static_cast<net::NodeId>(e.a);
  switch (e.kind) {
    case kLibQuery:
      issue_query(r);
      return;
    case kLibUpdate:
      update_neighbors(r);
      sim_.schedule_in(config_.update_period_s, e);
      return;
    default:
      OverlayEngine::on_event(e);
  }
}

}  // namespace dsf::diglib
