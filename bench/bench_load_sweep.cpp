// Load sweep: latency vs offered load for the open-loop injection layer.
// Each point is one full Gnutella run with an external query stream at a
// fixed offered rate (or a shaped schedule — step/flash/diurnal — whose
// *base* rate is the sweep axis), per-peer admission control, and the
// invariant checker attached.  The saturation question: as offered load
// crosses the federation's service capacity, sojourn percentiles must
// grow monotonically while goodput decouples from offered load (the
// admission layer sheds the excess instead of collapsing).
//
// Every run must finish checker-clean, including the admission
// conservation laws (offered == admitted + rejected, admitted ==
// completed + shed + pending); any violation makes the bench exit 4.
//
// Honours DSF_FAST / DSF_SEED like the other figure benches.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli/flag_registry.h"
#include "fig_common.h"
#include "load/open_loop.h"
#include "load/report.h"
#include "load/schedule.h"
#include "metrics/csv.h"
#include "metrics/json.h"
#include "metrics/table.h"
#include "sim/invariants.h"

namespace {

using namespace dsf;

struct SweepPoint {
  double offered_qps = 0.0;  ///< the schedule's base rate (the sweep axis)
  load::LoadStats stats;
};

/// One full run at the given base rate; flips *clean on any violation.
SweepPoint run_point(const gnutella::Config& config,
                     const load::ArrivalSchedule& schedule,
                     std::size_t admission_cap, bool* clean) {
  sim::InvariantChecker checker;
  gnutella::Simulation sim(config);
  load::OpenLoopOptions o;
  o.enabled = true;
  o.schedule = schedule;
  o.admission_cap = admission_cap;
  sim.set_open_loop(std::move(o));
  sim.attach_checker(&checker);
  sim.run();

  checker.check_overlay(sim.overlay());
  checker.check_ledger(sim.ledger());
  checker.check_admission(sim.load_stats());
  if (!checker.ok()) {
    std::fprintf(stderr, "offered %.2f q/s: %s", schedule.base_qps,
                 checker.report().c_str());
    *clean = false;
  }

  SweepPoint p;
  p.offered_qps = schedule.base_qps;
  p.stats = sim.load_stats();
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  cli::FlagRegistry reg(
      "bench_load_sweep [--schedule S] [--out PATH] [--csv PATH]",
      "Sojourn latency and goodput vs offered open-loop load, "
      "checker-clean; emits dsf-load-sweep-v1 JSON.  Honours DSF_FAST / "
      "DSF_SEED.");
  reg.add_string("schedule", "constant",
                 "offered-load shape per point: constant|diurnal|flash|step")
      .add_double("overload", 4.0,
                  "peak multiplier for the non-constant shapes")
      .add_int("cap", 4, "per-peer admission cap")
      .add_string("out", "load_sweep.json", "JSON output path")
      .add_string("csv", "load_sweep_series.csv", "CSV output path");
  load::ScheduleKind kind = load::ScheduleKind::kConstant;
  double overload = 4.0;
  std::size_t cap = 4;
  try {
    reg.parse(argc, argv);
    if (reg.help_requested()) {
      std::fputs(reg.help().c_str(), stdout);
      return 0;
    }
    kind = load::parse_schedule(reg.get_string("schedule"));
    overload = reg.get_double("overload");
    if (reg.get_int("cap") < 1)
      throw std::invalid_argument("--cap: must be >= 1");
    cap = static_cast<std::size_t>(reg.get_int("cap"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  // A deliberately small federation so the saturation knee sits at a few
  // queries per second and the whole sweep stays tractable: per-peer
  // service time is dominated by the query timeout on misses, so capacity
  // ~ peers / mean-service-seconds.
  gnutella::Config base = bench::paper_config(2);
  base.num_users = 100;
  base.catalog.num_songs = 50'000;
  if (bench::fast_mode()) {
    base.sim_hours = 0.5;
    base.warmup_hours = 0.1;
  } else {
    base.sim_hours = 1.5;
    base.warmup_hours = 0.25;
  }
  const double horizon_s = base.sim_hours * 3600.0;
  const double measure_s = (base.sim_hours - base.warmup_hours) * 3600.0;

  // Offered steps bracketing the ~0.1 q/s-per-peer service capacity:
  // from comfortably under-loaded to 2-3x past saturation.
  const std::vector<double> rates = {2.0, 5.0, 10.0, 15.0, 20.0, 30.0};
  bool clean = true;

  std::vector<SweepPoint> points;
  for (double qps : rates) {
    const auto schedule =
        load::make_schedule(kind, qps, kind == load::ScheduleKind::kConstant
                                           ? 1.0
                                           : overload,
                            horizon_s);
    points.push_back(run_point(base, schedule, cap, &clean));
    const load::LoadStats& s = points.back().stats;
    std::printf("offered %5.1f q/s: goodput %6.2f q/s, rejected %5.1f%%, "
                "p99 %8.0f ms\n",
                qps,
                measure_s > 0.0
                    ? static_cast<double>(s.completed_after_warmup) / measure_s
                    : 0.0,
                s.offered ? 100.0 * static_cast<double>(s.rejected) /
                                static_cast<double>(s.offered)
                          : 0.0,
                s.sojourn_hist.quantile(0.99) * 1e3);
  }

  std::printf("\n-- load sweep: sojourn latency vs offered load "
              "(schedule=%s, cap=%zu) --\n",
              load::schedule_name(kind), cap);
  metrics::Table table({"offered_qps", "goodput_qps", "rejection", "p50_ms",
                        "p95_ms", "p99_ms"});
  for (const SweepPoint& p : points) {
    const load::LoadStats& s = p.stats;
    table.add_row(
        {std::to_string(p.offered_qps),
         std::to_string(measure_s > 0.0
                            ? static_cast<double>(s.completed_after_warmup) /
                                  measure_s
                            : 0.0),
         std::to_string(s.offered ? static_cast<double>(s.rejected) /
                                        static_cast<double>(s.offered)
                                  : 0.0),
         std::to_string(s.sojourn_hist.quantile(0.50) * 1e3),
         std::to_string(s.sojourn_hist.quantile(0.95) * 1e3),
         std::to_string(s.sojourn_hist.quantile(0.99) * 1e3)});
  }
  table.print(std::cout);

  const std::string csv_path = reg.get_string("csv");
  metrics::CsvWriter csv(csv_path,
                         {"offered_qps", "offered", "admitted", "rejected",
                          "completed", "shed", "pending", "goodput_qps",
                          "p50_ms", "p95_ms", "p99_ms", "queue_peak"});
  for (const SweepPoint& p : points) {
    const load::LoadStats& s = p.stats;
    csv.add_row(
        {std::to_string(p.offered_qps), std::to_string(s.offered),
         std::to_string(s.admitted), std::to_string(s.rejected),
         std::to_string(s.completed), std::to_string(s.shed),
         std::to_string(s.pending),
         std::to_string(measure_s > 0.0
                            ? static_cast<double>(s.completed_after_warmup) /
                                  measure_s
                            : 0.0),
         std::to_string(s.sojourn_hist.quantile(0.50) * 1e3),
         std::to_string(s.sojourn_hist.quantile(0.95) * 1e3),
         std::to_string(s.sojourn_hist.quantile(0.99) * 1e3),
         std::to_string(s.peak_queue_depth)});
  }
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
    row.set("offered_qps", JsonValue::number(p.offered_qps));
    load::write_load_stats(row, p.stats, measure_s);
    rows.push(std::move(row));
  }
  JsonValue doc = JsonValue::object();
  doc.set("schema", JsonValue::string("dsf-load-sweep-v1"))
      .set("scenario", JsonValue::string("gnutella"))
      .set("schedule", JsonValue::string(load::schedule_name(kind)))
      .set("admission_cap", JsonValue::number(static_cast<std::uint64_t>(cap)))
      .set("peers",
           JsonValue::number(static_cast<std::uint64_t>(base.num_users)))
      .set("sim_hours", JsonValue::number(base.sim_hours))
      .set("warmup_hours", JsonValue::number(base.warmup_hours))
      .set("clean", JsonValue::boolean(clean))
      .set("points", std::move(rows));
  doc.write(out);
  out << '\n';
  std::printf("wrote %s\n", out_path.c_str());

  if (!clean) {
    std::fprintf(stderr, "load sweep: invariant violations detected\n");
    return 4;
  }
  std::printf("all %zu runs checker-clean\n", points.size());
  return 0;
}
