// Abuse sweep: contain-vs-amplify for the adversary layer.  Each point is
// one full Gnutella run with a fraction of the population turned into
// query-flood abusers (TTL-max sprays at a fixed per-abuser rate), the
// invariant checker attached, and the abuse ledger audited against the
// trace stream.  The containment question: as the abuser fraction grows,
// does the dynamic reorganization scheme *contain* the abusers — their
// overlay degree shrinking as good peers learn they contribute nothing —
// or does it amplify them, while static Gnutella keeps wiring them in at
// random?  Three answers per point, static vs --dynamic:
//
//   * abuser mean out-degree vs good-peer mean out-degree,
//   * good-peer hit ratio (closed-loop satisfaction; abuse sprays are
//     accounted separately and never inflate it),
//   * blast-radius traffic share: the fraction of all messages (and
//     bytes) attributable to abuser sprays, cascades included.
//
// A case-study run with exactly one abuser additionally exports the
// flight-recorder ring as a Chrome trace, so the single abuser's blast
// radius can be inspected span by span in chrome://tracing / Perfetto.
//
// Every run must finish checker-clean, including the abuse-accounting
// laws (traced abuse fates equal the abuse ledger's; abuse counts never
// exceed the run ledger's) and the abuser overlay audit; any violation
// makes the bench exit 4.
//
// Honours DSF_FAST / DSF_SEED like the other figure benches.

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
#include "obs/chrome_trace.h"
#include "obs/ring_sink.h"
#include "sim/adversary.h"
#include "sim/invariants.h"

namespace {

using namespace dsf;

struct SweepPoint {
  double fraction = 0.0;
  bool dynamic = false;
  sim::AdversaryStats adversary;
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t abuse_messages = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t abuse_bytes = 0;
  double abuser_mean_degree = 0.0;
  double good_mean_degree = 0.0;

  double good_hit_ratio() const {
    return queries ? static_cast<double>(hits) / static_cast<double>(queries)
                   : 0.0;
  }
  double abuse_traffic_share() const {
    return total_messages ? static_cast<double>(abuse_messages) /
                                static_cast<double>(total_messages)
                          : 0.0;
  }
  double abuse_bytes_share() const {
    return total_bytes ? static_cast<double>(abuse_bytes) /
                             static_cast<double>(total_bytes)
                       : 0.0;
  }
};

/// One full run at the given abuser fraction; flips *clean on any
/// violation.  When `ring` is given the run records into it (the
/// case-study export).
SweepPoint run_point(const gnutella::Config& config,
                     const sim::AdversaryPlan& plan, bool* clean,
                     obs::RingSink* ring = nullptr) {
  sim::InvariantChecker checker;
  gnutella::Simulation sim(config);
  if (plan.enabled()) sim.set_adversary(plan);
  sim.attach_checker(&checker);
  if (ring) sim.set_trace_sink(ring);
  const auto r = sim.run();

  checker.check_overlay(sim.overlay());
  checker.check_ledger(sim.ledger());
  checker.check_admission(sim.load_stats());
  checker.check_abuse(sim.adversary_stats(), sim.abuse_ledger(), sim.ledger());
  checker.check_abuser_overlay(sim.overlay(), sim.abusers());
  if (!checker.ok()) {
    std::fprintf(stderr, "fraction %.3f (%s): %s", plan.abuser_fraction,
                 config.dynamic ? "dynamic" : "static",
                 checker.report().c_str());
    *clean = false;
  }

  SweepPoint p;
  p.fraction = plan.abuser_fraction;
  p.dynamic = config.dynamic;
  p.adversary = sim.adversary_stats();
  p.queries = r.queries_issued;
  p.hits = r.total_hits();
  p.total_messages = sim.ledger().stats().total();
  p.abuse_messages = sim.abuse_ledger().stats().total();
  p.total_bytes = sim.ledger().total_bytes();
  p.abuse_bytes = sim.abuse_ledger().total_bytes();

  // Overlay containment: mean out-degree of the designated abusers vs the
  // rest of the population (both averaged over the full roster — off-line
  // users hold zero links in either group, the same bias on both sides).
  std::uint64_t abuser_deg = 0, good_deg = 0, abusers = 0, good = 0;
  for (net::NodeId u = 0; u < sim.overlay().size(); ++u) {
    const std::uint64_t d = sim.overlay().lists(u).out().size();
    if (sim.is_abuser(u)) {
      abuser_deg += d;
      ++abusers;
    } else {
      good_deg += d;
      ++good;
    }
  }
  p.abuser_mean_degree =
      abusers ? static_cast<double>(abuser_deg) / static_cast<double>(abusers)
              : 0.0;
  p.good_mean_degree =
      good ? static_cast<double>(good_deg) / static_cast<double>(good) : 0.0;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  cli::FlagRegistry reg(
      "bench_abuse_sweep [--abuse-rate R] [--out PATH] [--csv PATH]",
      "Abuser containment vs amplification across abuser fractions, "
      "static vs dynamic, checker-certified; emits dsf-abuse-sweep-v1 "
      "JSON plus a one-abuser Chrome-trace case study.  Honours DSF_FAST "
      "/ DSF_SEED.");
  reg.add_double("abuse-rate", 0.5, "TTL-max searches per second per abuser")
      .add_string("out", "abuse_sweep.json", "JSON output path")
      .add_string("csv", "abuse_sweep_series.csv", "CSV output path")
      .add_string("trace-out", "abuse_case_study_trace.json",
                  "Chrome-trace path for the one-abuser case study");
  double abuse_rate = 0.5;
  try {
    reg.parse(argc, argv);
    if (reg.help_requested()) {
      std::fputs(reg.help().c_str(), stdout);
      return 0;
    }
    abuse_rate = reg.get_double("abuse-rate");
    if (!(abuse_rate > 0.0))
      throw std::invalid_argument("--abuse-rate: must be > 0");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  // A small federation keeps 2 x |fractions| full runs tractable; the
  // containment signal (degree divergence under --dynamic) shows within a
  // few simulated hours.
  gnutella::Config base = bench::paper_config(2);
  base.num_users = 250;
  base.catalog.num_songs = 50'000;
  if (bench::fast_mode()) {
    base.sim_hours = 1.0;
    base.warmup_hours = 0.25;
  } else {
    base.sim_hours = 6.0;
    base.warmup_hours = 1.0;
  }
  const std::vector<double> fractions = bench::fast_mode()
                                            ? std::vector<double>{0.0, 0.1}
                                            : std::vector<double>{0.0, 0.05,
                                                                  0.1, 0.2};
  bool clean = true;

  std::vector<SweepPoint> points;
  for (const bool dynamic : {false, true}) {
    gnutella::Config config = base;
    config.dynamic = dynamic;
    for (double f : fractions) {
      sim::AdversaryPlan plan;
      plan.abuser_fraction = f;
      plan.abuse_rate_per_s = f > 0.0 ? abuse_rate : 0.0;
      points.push_back(run_point(config, plan, &clean));
      const SweepPoint& p = points.back();
      std::printf(
          "%-7s f=%.2f: %3llu abusers, abuse share %5.1f%%, good hit "
          "%5.1f%%, degree %.2f vs %.2f\n",
          dynamic ? "dynamic" : "static", f,
          static_cast<unsigned long long>(p.adversary.abusers),
          100.0 * p.abuse_traffic_share(), 100.0 * p.good_hit_ratio(),
          p.abuser_mean_degree, p.good_mean_degree);
    }
  }

  // Case study: exactly one abuser (fraction 1/N rounds to one peer),
  // dynamic scheme, flight recorder on — the exported Chrome trace holds
  // every span and transmission of the single abuser's blast radius.
  obs::RingSink ring(1 << 20);
  gnutella::Config case_config = base;
  case_config.dynamic = true;
  sim::AdversaryPlan case_plan;
  case_plan.abuser_fraction = 1.0 / static_cast<double>(base.num_users);
  case_plan.abuse_rate_per_s = abuse_rate;
  const SweepPoint case_point =
      run_point(case_config, case_plan, &clean, &ring);
  const std::string trace_path = reg.get_string("trace-out");
  const auto records = ring.snapshot();
  if (!obs::write_chrome_trace_file(trace_path, records,
                                    ring.overwritten())) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    return 1;
  }
  std::printf(
      "case study: 1 abuser, %llu abuse queries, %5.1f%% traffic share, "
      "%zu trace records -> %s\n",
      static_cast<unsigned long long>(case_point.adversary.abuse_queries),
      100.0 * case_point.abuse_traffic_share(), records.size(),
      trace_path.c_str());

  std::printf("\n-- abuse sweep: contain vs amplify (rate=%.2f q/s per "
              "abuser) --\n",
              abuse_rate);
  metrics::Table table({"scheme", "fraction", "abusers", "abuse_share",
                        "good_hit_ratio", "abuser_degree", "good_degree"});
  for (const SweepPoint& p : points)
    table.add_row({p.dynamic ? "dynamic" : "static",
                   std::to_string(p.fraction),
                   std::to_string(p.adversary.abusers),
                   std::to_string(p.abuse_traffic_share()),
                   std::to_string(p.good_hit_ratio()),
                   std::to_string(p.abuser_mean_degree),
                   std::to_string(p.good_mean_degree)});
  table.print(std::cout);

  const std::string csv_path = reg.get_string("csv");
  metrics::CsvWriter csv(
      csv_path, {"dynamic", "fraction", "abusers", "abuse_queries",
                 "abuse_hits", "queries", "hits", "total_messages",
                 "abuse_messages", "total_bytes", "abuse_bytes",
                 "abuser_mean_degree", "good_mean_degree"});
  for (const SweepPoint& p : points)
    csv.add_row({std::to_string(p.dynamic ? 1 : 0),
                 std::to_string(p.fraction),
                 std::to_string(p.adversary.abusers),
                 std::to_string(p.adversary.abuse_queries),
                 std::to_string(p.adversary.abuse_hits),
                 std::to_string(p.queries), std::to_string(p.hits),
                 std::to_string(p.total_messages),
                 std::to_string(p.abuse_messages),
                 std::to_string(p.total_bytes),
                 std::to_string(p.abuse_bytes),
                 std::to_string(p.abuser_mean_degree),
                 std::to_string(p.good_mean_degree)});
  std::printf("full sweep written to %s\n", csv_path.c_str());

  const std::string out_path = reg.get_string("out");
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  using metrics::JsonValue;
  JsonValue rows = JsonValue::array();
  for (const SweepPoint& p : points) {
    JsonValue row = JsonValue::object();
    row.set("abuser_fraction", JsonValue::number(p.fraction))
        .set("dynamic", JsonValue::boolean(p.dynamic))
        .set("abusers", JsonValue::number(p.adversary.abusers))
        .set("abuse_queries", JsonValue::number(p.adversary.abuse_queries))
        .set("abuse_hits", JsonValue::number(p.adversary.abuse_hits))
        .set("queries", JsonValue::number(p.queries))
        .set("hits", JsonValue::number(p.hits))
        .set("good_hit_ratio", JsonValue::number(p.good_hit_ratio()))
        .set("total_messages", JsonValue::number(p.total_messages))
        .set("abuse_messages", JsonValue::number(p.abuse_messages))
        .set("abuse_traffic_share", JsonValue::number(p.abuse_traffic_share()))
        .set("total_bytes", JsonValue::number(p.total_bytes))
        .set("abuse_bytes", JsonValue::number(p.abuse_bytes))
        .set("abuse_bytes_share", JsonValue::number(p.abuse_bytes_share()))
        .set("abuser_mean_degree", JsonValue::number(p.abuser_mean_degree))
        .set("good_mean_degree", JsonValue::number(p.good_mean_degree));
    rows.push(std::move(row));
  }
  JsonValue case_study = JsonValue::object();
  case_study.set("abusers", JsonValue::number(case_point.adversary.abusers))
      .set("dynamic", JsonValue::boolean(true))
      .set("abuse_queries",
           JsonValue::number(case_point.adversary.abuse_queries))
      .set("abuse_traffic_share",
           JsonValue::number(case_point.abuse_traffic_share()))
      .set("trace_records",
           JsonValue::number(static_cast<std::uint64_t>(records.size())))
      .set("trace_path", JsonValue::string(trace_path));
  JsonValue doc = JsonValue::object();
  doc.set("schema", JsonValue::string("dsf-abuse-sweep-v1"))
      .set("scenario", JsonValue::string("gnutella"))
      .set("abuse_rate_per_s", JsonValue::number(abuse_rate))
      .set("peers",
           JsonValue::number(static_cast<std::uint64_t>(base.num_users)))
      .set("sim_hours", JsonValue::number(base.sim_hours))
      .set("warmup_hours", JsonValue::number(base.warmup_hours))
      .set("clean", JsonValue::boolean(clean))
      .set("points", std::move(rows))
      .set("case_study", std::move(case_study));
  doc.write(out);
  out << '\n';
  std::printf("wrote %s\n", out_path.c_str());

  if (!clean) {
    std::fprintf(stderr, "abuse sweep: invariant violations detected\n");
    return 4;
  }
  std::printf("all %zu runs checker-clean\n", points.size() + 1);
  return 0;
}
