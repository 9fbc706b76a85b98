// Fault sweep: the Fig-1 hit-ratio comparison (static vs dynamic Gnutella,
// hops = 2) repeated under increasing query/reply loss, with the invariant
// checker attached to every run.  The reproduction question: does the
// dynamic overlay's advantage survive an unreliable transport, and how
// fast does the hit ratio decay as the network drops messages?
//
// Every run must finish checker-clean (message conservation, TTL
// monotonicity, no deliveries to crashed peers, overlay sanity, ledger
// reconciliation); any violation makes the bench exit nonzero.
//
// Honours DSF_FAST / DSF_SEED like the other figure benches.

#include <algorithm>
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
#include "sim/fault.h"
#include "sim/invariants.h"

namespace {

using namespace dsf;

struct SweepPoint {
  double loss = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t messages = 0;
  std::uint64_t dropped = 0;
  double hit_ratio() const {
    return queries ? static_cast<double>(hits) / static_cast<double>(queries)
                   : 0.0;
  }
};

/// One full run at the given loss rate; dies loudly on any invariant
/// violation.
SweepPoint run_point(const gnutella::Config& config, double loss,
                     bool* clean) {
  sim::FaultPlan plan;
  if (loss > 0.0) {
    sim::FaultRule rule;
    rule.drop_prob = loss;
    plan.set_rule(net::MessageType::kQuery, rule);
    plan.set_rule(net::MessageType::kQueryReply, rule);
  }

  sim::InvariantChecker checker;
  gnutella::Simulation sim(config);
  sim.set_fault_plan(plan);
  sim.attach_checker(&checker);
  const auto r = sim.run();

  checker.check_overlay(sim.overlay());
  checker.check_ledger(sim.ledger());
  if (!checker.ok()) {
    std::fprintf(stderr, "loss %.2f (%s): %s", loss,
                 config.dynamic ? "dynamic" : "static",
                 checker.report().c_str());
    *clean = false;
  }

  SweepPoint p;
  p.loss = loss;
  p.queries = r.queries_issued;
  p.hits = r.total_hits();
  p.messages = r.total_messages();
  p.dropped = sim.ledger().total_dropped();
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  cli::FlagRegistry reg(
      "bench_fault_sweep [--out PATH] [--csv PATH]",
      "Hit ratio vs query/reply loss, checker-clean; emits "
      "dsf-fault-sweep-v1 JSON.  Honours DSF_FAST / DSF_SEED.");
  reg.add_string("out", "fault_sweep.json", "JSON output path")
      .add_string("csv", "fault_sweep_series.csv", "CSV output path");
  try {
    reg.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (reg.help_requested()) {
    std::fputs(reg.help().c_str(), stdout);
    return 0;
  }

  gnutella::Config base = bench::paper_config(2);
  if (!bench::fast_mode()) {
    // Full scale is 10 runs; trim the horizon so the sweep stays tractable
    // while keeping several post-warmup hours per point.
    base.sim_hours = std::min(base.sim_hours, 36.0);
    base.warmup_hours = std::min(base.warmup_hours, 6.0);
  }

  const std::vector<double> losses = {0.0, 0.05, 0.10, 0.15, 0.20};
  bool clean = true;

  std::vector<SweepPoint> sta, dyn;
  for (double loss : losses) {
    gnutella::Config c = base;
    c.dynamic = false;
    sta.push_back(run_point(c, loss, &clean));
    c.dynamic = true;
    dyn.push_back(run_point(c, loss, &clean));
    std::printf("loss %.0f%%: static hit ratio %.3f, dynamic %.3f\n",
                loss * 100, sta.back().hit_ratio(), dyn.back().hit_ratio());
  }

  std::printf("\n-- fault sweep: hit ratio vs query/reply loss (hops=%d) --\n",
              base.max_hops);
  metrics::Table table({"loss", "Gnutella", "Dynamic_Gnutella", "dropped"});
  for (std::size_t i = 0; i < losses.size(); ++i)
    table.add_row({std::to_string(losses[i]),
                   std::to_string(sta[i].hit_ratio()),
                   std::to_string(dyn[i].hit_ratio()),
                   std::to_string(sta[i].dropped + dyn[i].dropped)});
  table.print(std::cout);

  const std::string csv_path = reg.get_string("csv");
  metrics::CsvWriter csv(csv_path,
                         {"loss", "hits_static", "queries_static",
                          "hit_ratio_static", "hits_dynamic",
                          "queries_dynamic", "hit_ratio_dynamic",
                          "dropped_total"});
  for (std::size_t i = 0; i < losses.size(); ++i)
    csv.add_row({std::to_string(losses[i]), std::to_string(sta[i].hits),
                 std::to_string(sta[i].queries),
                 std::to_string(sta[i].hit_ratio()),
                 std::to_string(dyn[i].hits), std::to_string(dyn[i].queries),
                 std::to_string(dyn[i].hit_ratio()),
                 std::to_string(sta[i].dropped + dyn[i].dropped)});
  std::printf("full sweep written to %s\n", csv_path.c_str());

  const std::string out_path = reg.get_string("out");
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  using metrics::JsonValue;
  JsonValue rows = JsonValue::array();
  for (std::size_t i = 0; i < losses.size(); ++i) {
    JsonValue row = JsonValue::object();
    row.set("loss", JsonValue::number(losses[i]))
        .set("hit_ratio_static", JsonValue::number(sta[i].hit_ratio()))
        .set("hit_ratio_dynamic", JsonValue::number(dyn[i].hit_ratio()))
        .set("queries_static", JsonValue::number(sta[i].queries))
        .set("queries_dynamic", JsonValue::number(dyn[i].queries))
        .set("dropped_total",
             JsonValue::number(sta[i].dropped + dyn[i].dropped));
    rows.push(std::move(row));
  }
  JsonValue doc = JsonValue::object();
  doc.set("schema", JsonValue::string("dsf-fault-sweep-v1"))
      .set("max_hops", JsonValue::number(std::int64_t{base.max_hops}))
      .set("sim_hours", JsonValue::number(base.sim_hours))
      .set("clean", JsonValue::boolean(clean))
      .set("points", std::move(rows));
  doc.write(out);
  out << '\n';
  std::printf("wrote %s\n", out_path.c_str());

  if (!clean) {
    std::fprintf(stderr, "fault sweep: invariant violations detected\n");
    return 4;
  }
  std::printf("all %zu runs checker-clean\n", 2 * losses.size());
  return 0;
}
