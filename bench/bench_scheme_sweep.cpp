// Scheme sweep: the ranked query plane measured end to end.  One full
// static Gnutella run per search scheme — flood, iterative deepening,
// directed BFT, local indices, top-k ranked — with the invariant checker
// attached (including the per-outcome scheme contracts: k bound, score
// ordering, no pruning for exact-match).  The static overlay plus the
// four-lane RNG layout make the arms directly comparable: every arm sees
// the same peers, sessions and query arrivals, so traffic differences are
// the scheme's alone.
//
// The headline figure: FD-style top-k prunes last-hop forwards through
// one-hop scored digests, cutting query traffic versus the flood while
// answering the exact same set of queries (its pruning never withholds a
// forward that could change a query's has-a-result verdict).  The JSON
// carries the measured reduction and both hit ratios so the acceptance
// bar — >= 3x at equal hit ratio — is machine-checkable downstream.
//
// Every run must finish checker-clean; any violation makes the bench
// exit 4.  Honours DSF_FAST / DSF_SEED like the other figure benches.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli/flag_registry.h"
#include "fig_common.h"
#include "metrics/csv.h"
#include "metrics/json.h"
#include "metrics/table.h"
#include "sim/invariants.h"

namespace {

using namespace dsf;

struct ArmPoint {
  sim::SearchStrategyKind kind = sim::SearchStrategyKind::kFlood;
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t results = 0;
  std::uint64_t query_messages = 0;
  std::uint64_t reply_messages = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;
  double first_result_delay_mean = 0.0;

  double hit_ratio() const {
    return queries ? static_cast<double>(hits) / static_cast<double>(queries)
                   : 0.0;
  }
};

/// One full run under the given scheme; flips *clean on any violation.
ArmPoint run_arm(const gnutella::Config& config, bool* clean) {
  sim::InvariantChecker checker;
  gnutella::Simulation sim(config);
  sim.attach_checker(&checker);
  const auto r = sim.run();

  checker.check_overlay(sim.overlay());
  checker.check_ledger(sim.ledger());
  checker.check_admission(sim.load_stats());
  if (!checker.ok()) {
    std::fprintf(stderr, "scheme %s: %s",
                 sim::to_string(config.search_strategy),
                 checker.report().c_str());
    *clean = false;
  }

  ArmPoint p;
  p.kind = config.search_strategy;
  p.queries = r.queries_issued;
  p.hits = r.total_hits();
  p.results = r.total_results();
  p.query_messages = r.traffic.total(net::MessageType::kQuery);
  p.reply_messages = r.traffic.total(net::MessageType::kQueryReply);
  p.total_messages = sim.ledger().stats().total();
  p.total_bytes = sim.ledger().total_bytes();
  p.first_result_delay_mean = r.first_result_delay_s.mean();
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  cli::FlagRegistry reg(
      "bench_scheme_sweep [--top-k K] [--out PATH] [--csv PATH]",
      "Search-scheme comparison on the static Gnutella overlay: one "
      "checker-certified run per scheme (flood, iterative, directed, "
      "local-indices, top-k); emits dsf-scheme-sweep-v2 JSON.  Honours "
      "DSF_FAST / DSF_SEED.");
  reg.add_int("top-k", 4, "results per query for the ranked arm (>= 1)")
      .add_string("out", "scheme_sweep.json", "JSON output path")
      .add_string("csv", "scheme_sweep_series.csv", "CSV output path");
  std::uint32_t top_k = 4;
  try {
    reg.parse(argc, argv);
    if (reg.help_requested()) {
      std::fputs(reg.help().c_str(), stdout);
      return 0;
    }
    const long long k = reg.get_int("top-k");
    if (k < 1) throw std::invalid_argument("--top-k: must be >= 1");
    top_k = static_cast<std::uint32_t>(k);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  // Static overlay: the four-lane RNG layout keeps sessions and query
  // arrivals identical across arms, so scheme traffic is the only moving
  // part.  The population mirrors bench_abuse_sweep's tractable federation.
  gnutella::Config base = bench::paper_config(2);
  base.dynamic = false;
  base.num_users = 250;
  base.catalog.num_songs = 50'000;
  if (bench::fast_mode()) {
    base.sim_hours = 1.0;
    base.warmup_hours = 0.25;
  } else {
    base.sim_hours = 6.0;
    base.warmup_hours = 1.0;
  }
  base.top_k = top_k;

  const sim::SearchStrategyKind kinds[] = {
      sim::SearchStrategyKind::kFlood,
      sim::SearchStrategyKind::kIterativeDeepening,
      sim::SearchStrategyKind::kDirectedBft,
      sim::SearchStrategyKind::kLocalIndices,
      sim::SearchStrategyKind::kTopK,
  };

  bool clean = true;
  std::vector<ArmPoint> arms;
  for (const auto kind : kinds) {
    gnutella::Config config = base;
    config.search_strategy = kind;
    arms.push_back(run_arm(config, &clean));
    const ArmPoint& p = arms.back();
    std::printf("%-13s: %7llu queries, hit ratio %5.1f%%, %9llu query msgs, "
                "%7llu results\n",
                sim::to_string(kind),
                static_cast<unsigned long long>(p.queries),
                100.0 * p.hit_ratio(),
                static_cast<unsigned long long>(p.query_messages),
                static_cast<unsigned long long>(p.results));
  }

  const ArmPoint& flood = arms[0];
  const ArmPoint* topk = nullptr;
  for (const ArmPoint& p : arms)
    if (p.kind == sim::SearchStrategyKind::kTopK) topk = &p;
  const double reduction =
      topk && topk->query_messages
          ? static_cast<double>(flood.query_messages) /
                static_cast<double>(topk->query_messages)
          : 0.0;
  std::printf("\ntop-k vs flood: %.2fx query-traffic reduction, hit ratio "
              "%.4f vs %.4f\n",
              reduction, topk ? topk->hit_ratio() : 0.0, flood.hit_ratio());

  std::printf("\n-- scheme sweep: one static run per scheme (k=%u) --\n",
              top_k);
  metrics::Table table({"scheme", "queries", "hit_ratio", "query_msgs",
                        "reply_msgs", "results", "delay_mean_s"});
  for (const ArmPoint& p : arms)
    table.add_row({sim::to_string(p.kind), std::to_string(p.queries),
                   std::to_string(p.hit_ratio()),
                   std::to_string(p.query_messages),
                   std::to_string(p.reply_messages),
                   std::to_string(p.results),
                   std::to_string(p.first_result_delay_mean)});
  table.print(std::cout);

  const std::string csv_path = reg.get_string("csv");
  metrics::CsvWriter csv(csv_path,
                         {"scheme", "queries", "hits", "results",
                          "query_messages", "reply_messages",
                          "total_messages", "total_bytes",
                          "first_result_delay_mean_s"});
  for (const ArmPoint& p : arms)
    csv.add_row({sim::to_string(p.kind), std::to_string(p.queries),
                 std::to_string(p.hits), std::to_string(p.results),
                 std::to_string(p.query_messages),
                 std::to_string(p.reply_messages),
                 std::to_string(p.total_messages),
                 std::to_string(p.total_bytes),
                 std::to_string(p.first_result_delay_mean)});
  std::printf("full sweep written to %s\n", csv_path.c_str());

  const std::string out_path = reg.get_string("out");
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  using metrics::JsonValue;
  JsonValue rows = JsonValue::array();
  for (const ArmPoint& p : arms) {
    JsonValue row = JsonValue::object();
    row.set("scheme", JsonValue::string(sim::to_string(p.kind)))
        .set("queries", JsonValue::number(p.queries))
        .set("hits", JsonValue::number(p.hits))
        .set("hit_ratio", JsonValue::number(p.hit_ratio()))
        .set("results", JsonValue::number(p.results))
        .set("query_messages", JsonValue::number(p.query_messages))
        .set("reply_messages", JsonValue::number(p.reply_messages))
        .set("total_messages", JsonValue::number(p.total_messages))
        .set("total_bytes", JsonValue::number(p.total_bytes))
        .set("first_result_delay_mean_s",
             JsonValue::number(p.first_result_delay_mean));
    rows.push(std::move(row));
  }
  JsonValue versus = JsonValue::object();
  versus.set("traffic_reduction", JsonValue::number(reduction))
      .set("flood_hit_ratio", JsonValue::number(flood.hit_ratio()))
      .set("topk_hit_ratio", JsonValue::number(topk ? topk->hit_ratio() : 0.0))
      .set("flood_hits", JsonValue::number(flood.hits))
      .set("topk_hits", JsonValue::number(topk ? topk->hits : 0));
  JsonValue doc = JsonValue::object();
  doc.set("schema", JsonValue::string("dsf-scheme-sweep-v2"))
      .set("scenario", JsonValue::string("gnutella-static"))
      .set("peers",
           JsonValue::number(static_cast<std::uint64_t>(base.num_users)))
      .set("sim_hours", JsonValue::number(base.sim_hours))
      .set("warmup_hours", JsonValue::number(base.warmup_hours))
      .set("top_k", JsonValue::number(static_cast<std::uint64_t>(top_k)))
      .set("clean", JsonValue::boolean(clean))
      .set("arms", std::move(rows))
      .set("topk_vs_flood", std::move(versus));
  doc.write(out);
  out << '\n';
  std::printf("wrote %s\n", out_path.c_str());

  if (!clean) {
    std::fprintf(stderr, "scheme sweep: invariant violations detected\n");
    return 4;
  }
  std::printf("all %zu runs checker-clean\n", arms.size());
  return 0;
}
