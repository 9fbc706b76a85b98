// dsf_sim — command-line driver for every scenario in the library.
//
//   dsf_sim gnutella [--users 2000] [--hops 2] [--dynamic true]
//                    [--threshold 2] [--library-growth] [--exclude-owned]
//                    [--search-scheme flood|iterative|directed|
//                                     local-indices|top-k] [--top-k 1]
//                    [--hours 96] [--warmup 12] [--seed 42] [--json]
//   dsf_sim webcache [--proxies 64] [--dynamic true] [--hours 4]
//                    [--warmup 0.5] [--json]
//   dsf_sim olap     [--peers 48] [--dynamic true] [--hours 6]
//                    [--warmup 1] [--json]
//   dsf_sim diglib   [--repos 64] [--mode all|static|adaptive]
//                    [--search-scheme flood|iterative|directed|
//                                     local-indices|top-k] [--top-k 1]
//                    [--hours 2] [--warmup 0.25] [--json]
//
// --peers, --hours, --warmup and --seed are common to all four scenarios;
// every other scenario flag is read only by the scenarios whose usage line
// above shows it, and giving it to another scenario is a usage error
// (exit 2) rather than a run that silently ignores it.  Metrics are
// reported only after the warm-up, so a --warmup that is not below
// --hours (given or defaulted) is a usage error too.
//
// Run `dsf_sim --help` for the full generated flag reference.  The whole
// surface is declared once through cli::FlagRegistry: every scenario also
// accepts --peers as a uniform population flag (the scale-sweep spelling;
// the scenario-specific spelling wins when both are given), the shared
// --fault-* injection group (cli/fault_flags.h), and the flight-recorder
// group:
//
//   --trace ring             record every search/transmission into the
//                            in-memory ring (off | ring)
//   --trace-buffer N         ring capacity in records (default 65536)
//   --trace-out FILE         export the ring as Chrome trace JSON
//                            (chrome://tracing, Perfetto)
//   --trace-spans            print the per-search span summary table
//   --heartbeat S            record a progress heartbeat every S
//                            sim-seconds into the ring (needs --trace
//                            ring; never changes the run)
//
// Every scenario also accepts the snapshot group (mutually exclusive with
// the open-loop and adversary groups and --capture-trace):
//
//   --save-snapshot PATH@T   run to sim-second T, write a checkpoint of the
//                            full simulation state to PATH, continue to the
//                            horizon
//   --load-snapshot PATH     resume from a checkpoint instead of starting
//                            fresh; the remainder of the run is
//                            byte-identical to the uninterrupted one.  The
//                            scenario flags must match the saving run.
//
// and the open-loop load group (mutually exclusive with snapshots):
//
//   --open-loop              inject an external query stream on top of the
//                            closed-loop workload, with per-peer admission
//                            control
//   --arrival-rate X         aggregate offered load in queries/second
//   --arrival-schedule S     constant | diurnal | flash | step
//   --overload-factor X      peak multiplier for the non-constant shapes
//   --admission-cap N        per-peer bound on waiting + in-service queries
//   --load-trace FILE        replay arrivals from a trace file
//                            ("time_s peer item" per line) instead of the
//                            generator
//
// and the adversary group (mutually exclusive with snapshots; see
// cli/adversary_flags.h for the full knob list):
//
//   --adversary-abusers F --adversary-abuse-rate R
//                            query-flood abusers spraying TTL-max searches
//   --adversary-free-riders F
//                            peers that serve nothing but query fully
//   --adversary-outage-class C --adversary-outage-at S
//                            correlated regional outage of a delay class
//   --adversary-storm-rate R churn storms with Pareto session tails
//                            (gnutella only: the other scenarios model
//                            no sessions, so the five --adversary-storm-*
//                            flags are usage errors there)
//   --adversary-degree-<class> N / --adversary-weight-<class> W
//                            heterogeneous per-class capacity
//   --adversary-check        audit abuse attribution; exit 4 on violation
//   --capture-trace PATH     write the closed-loop query arrivals in the
//                            "time_s peer item" grammar for later
//                            --open-loop --load-trace replay
//
// Exit codes: 0 success; 1 a runtime failure (an unreadable load trace,
// an unwritable capture file); 2 a command-line error — an unknown
// option (rejected with a nearest-match suggestion), a value that does
// not parse as, overflows or falls outside its declared type or range, or
// flags and layers that cannot run together; 3 the trace export could
// not be written; 4 the invariant checker found violations; 5 a corrupt,
// truncated, mismatched or older-format snapshot file.  Framing and CRC
// damage is rejected before any state is touched; a CRC-valid file with
// inconsistent contents (a count larger than its section) is rejected
// while state is being applied, and the run stops there.  Text output is
// human-readable; --json emits a machine-readable record for scripting
// sweeps.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli/adversary_flags.h"
#include "cli/fault_flags.h"
#include "cli/flag_registry.h"
#include "diglib/diglib_sim.h"
#include "gnutella/simulation.h"
#include "load/open_loop.h"
#include "load/report.h"
#include "load/schedule.h"
#include "load/trace_reader.h"
#include "metrics/json.h"
#include "obs/chrome_trace.h"
#include "obs/ring_sink.h"
#include "obs/span_table.h"
#include "olap/olap_sim.h"
#include "sim/invariants.h"
#include "snap/snapshot.h"
#include "webcache/webcache_sim.h"

namespace {

using namespace dsf;

int usage() {
  std::fprintf(stderr,
               "usage: dsf_sim <gnutella|webcache|olap|diglib> [options]\n"
               "       dsf_sim --help for the full flag reference\n");
  return 2;
}

cli::FlagRegistry make_registry() {
  cli::FlagRegistry reg(
      "dsf_sim <gnutella|webcache|olap|diglib> [--flag value ...]",
      "Scenario driver for the distributed-search simulators.");
  reg.add_bool("json", false, "emit one machine-readable JSON record");

  reg.group("scenario");
  reg.add_int("peers", -1, "population, uniform spelling for sweeps "
                           "(scenario-specific spelling wins)")
      .add_int("users", -1, "gnutella population")
      .add_int("proxies", -1, "webcache population")
      .add_int("repos", -1, "diglib population")
      .add_int("hops", -1, "gnutella hop limit")
      .add_bool("dynamic", false, "gnutella/webcache/olap: adaptive neighbor "
                                  "selection (default: scenario config)")
      .add_int("threshold", -1, "gnutella reconfiguration threshold")
      .add_double("hours", -1.0, "simulated hours")
      .add_double("warmup", -1.0,
                  "warm-up hours before metrics are reported (must be "
                  "below --hours)")
      .add_int("seed", -1, "master seed (default 42/7/11/17 by scenario)")
      .add_bool("library-growth", false, "gnutella: downloads grow libraries")
      .add_bool("exclude-owned", false, "gnutella: re-draw owned songs")
      .add_string("mode", "adaptive", "diglib list mode: all|static|adaptive")
      .note("a scenario flag given to a scenario that does not read it is "
            "rejected; --peers/--hours/--warmup/--seed apply to all four");

  reg.group("ranked query plane");
  reg.add_string("search-scheme", "flood",
                 "query scheme for gnutella and diglib: flood|iterative|"
                 "directed|local-indices|top-k")
      .add_int("top-k", 1, "top-k: results the initiator wants (>= 1)");

  reg.group("snapshot");
  reg.add_string("save-snapshot", "",
                 "write a checkpoint at sim-second T: PATH@T")
      .add_string("load-snapshot", "",
                  "resume from a checkpoint written by --save-snapshot "
                  "(same scenario flags required)");

  reg.group("open-loop load");
  reg.add_bool("open-loop", false,
               "inject an external query stream with per-peer admission "
               "control")
      .add_double("arrival-rate", 0.0,
                  "aggregate offered load in queries/second")
      .add_string("arrival-schedule", "constant",
                  "offered-load shape: constant|diurnal|flash|step")
      .add_double("overload-factor", 4.0,
                  "peak multiplier for the non-constant shapes")
      .add_int("admission-cap", 8,
               "per-peer bound on waiting + in-service injected queries")
      .add_string("load-trace", "",
                  "replay arrivals from a trace file (time_s peer item "
                  "per line) instead of the generator");

  reg.group("flight recorder");
  reg.add_string("trace", "off", "off | ring (the flight recorder)")
      .add_int("trace-buffer",
               static_cast<std::int64_t>(obs::RingSink::kDefaultCapacity),
               "ring capacity in records")
      .add_string("trace-out", "", "export the ring as Chrome trace JSON")
      .add_bool("trace-spans", false, "print the per-search span table")
      .add_double("heartbeat", 0.0,
                  "heartbeat period in sim-seconds (0: off; needs "
                  "--trace ring)");

  register_fault_flags(reg);
  register_adversary_flags(reg);
  return reg;
}

/// The scenario flags each scenario reads.  --peers, --hours, --warmup and
/// --seed are common to all four and left out; every flag listed here
/// belongs only to the scenarios whose row names it.  The churn storm
/// kicks peers out of their sessions, which only gnutella models.
struct ScenarioFlags {
  const char* scenario;
  std::vector<std::string> reads;
};
const ScenarioFlags kScenarioFlags[] = {
    {"gnutella",
     {"users", "hops", "threshold", "dynamic", "library-growth",
      "exclude-owned", "search-scheme", "top-k", "adversary-storm-rate",
      "adversary-storm-start", "adversary-storm-end", "adversary-storm-shape",
      "adversary-storm-offline-s"}},
    {"webcache", {"proxies", "dynamic"}},
    {"olap", {"dynamic"}},
    {"diglib", {"repos", "mode", "search-scheme", "top-k"}},
};

/// Rejects a scenario flag set explicitly for a scenario that never reads
/// it: the run would otherwise exit 0 with output identical to the run
/// without the flag.  An unknown scenario is left to the usage check.
void reject_unread_flags(const cli::FlagRegistry& reg,
                         const std::string& scenario) {
  const ScenarioFlags* own = nullptr;
  for (const ScenarioFlags& row : kScenarioFlags)
    if (scenario == row.scenario) own = &row;
  if (own == nullptr) return;
  for (const ScenarioFlags& row : kScenarioFlags)
    for (const std::string& flag : row.reads) {
      if (!reg.was_set(flag) ||
          std::find(own->reads.begin(), own->reads.end(), flag) !=
              own->reads.end())
        continue;
      std::string msg = "--" + flag + ": scenario " + scenario +
                        " does not read this flag (" + scenario + " reads";
      for (const std::string& f : own->reads) msg += " --" + f;
      throw cli::FlagError(msg + " and the common --peers --hours --warmup "
                                 "--seed)");
    }
}

/// Config-default fallbacks: the registry's sentinel defaults mean "not
/// given"; each scenario keeps its own config defaults.
std::int64_t int_or(const cli::FlagRegistry& reg, const char* name,
                    std::int64_t fallback) {
  return reg.was_set(name) ? reg.get_int(name) : fallback;
}
double double_or(const cli::FlagRegistry& reg, const char* name,
                 double fallback) {
  return reg.was_set(name) ? reg.get_double(name) : fallback;
}
bool bool_or(const cli::FlagRegistry& reg, const char* name, bool fallback) {
  return reg.was_set(name) ? reg.get_bool(name) : fallback;
}

/// Uniform population flag: every scenario accepts --peers (what the
/// scale sweep passes); the scenario-specific spelling takes precedence.
std::uint32_t population(const cli::FlagRegistry& reg, const char* specific,
                         std::uint32_t fallback) {
  const std::int64_t peers =
      int_or(reg, "peers", static_cast<std::int64_t>(fallback));
  return static_cast<std::uint32_t>(int_or(reg, specific, peers));
}

/// Resolves --hours / --warmup over the scenario's config defaults.
/// Metrics are reported only once the warm-up has elapsed, so a warm-up
/// that reaches the horizon would measure nothing: a typed usage error.
void apply_horizon(const cli::FlagRegistry& reg, double& sim_hours,
                   double& warmup_hours) {
  sim_hours = double_or(reg, "hours", sim_hours);
  warmup_hours = double_or(reg, "warmup", warmup_hours);
  if (warmup_hours >= sim_hours) {
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "--warmup (%g h) must be below --hours (%g h): metrics are "
                  "reported only after the warm-up",
                  warmup_hours, sim_hours);
    throw cli::FlagError(msg);
  }
}

/// Parses the snapshot group once and arms a freshly constructed scenario
/// engine: a load must precede everything else (the engine rejects resuming
/// into a used simulation).
struct SnapshotContext {
  std::string save_path;
  double save_at_s = 0.0;
  std::string load_path;

  explicit SnapshotContext(const cli::FlagRegistry& reg)
      : load_path(reg.get_string("load-snapshot")) {
    const std::string save = reg.get_string("save-snapshot");
    if (save.empty()) return;
    const std::size_t at = save.rfind('@');
    if (at == std::string::npos || at == 0 || at + 1 == save.size())
      throw std::invalid_argument(
          "--save-snapshot: expected PATH@T with T in sim-seconds");
    save_path = save.substr(0, at);
    const std::string when = save.substr(at + 1);
    std::size_t used = 0;
    try {
      save_at_s = std::stod(when, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != when.size() || !(save_at_s > 0.0))
      throw std::invalid_argument(
          "--save-snapshot: T must be a positive sim-second count, got '" +
          when + "'");
  }

  void arm(sim::OverlayEngine& engine) {
    if (!load_path.empty()) engine.load_snapshot(load_path);
    if (!save_path.empty()) engine.request_snapshot_save(save_path, save_at_s);
  }
};

/// Parses the --fault-* group once, arms a scenario engine before run(),
/// and audits the finished run when --fault-check was requested.
struct FaultContext {
  cli::FaultOptions opts;
  sim::InvariantChecker checker;

  explicit FaultContext(const cli::FlagRegistry& reg)
      : opts(cli::fault_options_from(reg)) {}

  void arm(sim::OverlayEngine& engine) {
    engine.set_fault_plan(opts.plan);
    engine.set_crash_model(opts.crashes);
    if (opts.check) engine.attach_checker(&checker);
  }

  /// Exit code: 0 when clean (or unchecked), 4 on invariant violations.
  int finish(const sim::OverlayEngine& engine) {
    if (!opts.check) return 0;
    checker.check_overlay(engine.overlay());
    checker.check_ledger(engine.ledger());
    checker.check_admission(engine.load_stats());
    if (!checker.ok()) {
      std::fprintf(stderr, "%s", checker.report().c_str());
      return 4;
    }
    std::fprintf(stderr,
                 "fault-check: ok (%llu trace events, %llu crashes, "
                 "0 violations)\n",
                 static_cast<unsigned long long>(checker.events_seen()),
                 static_cast<unsigned long long>(engine.crashes()));
    return 0;
  }
};

/// Parses the --adversary-* group (plus --capture-trace) once, arms a
/// scenario engine before run(), and audits abuse attribution after when
/// --adversary-check was requested.  The checker instance is shared with
/// FaultContext so --fault-check and --adversary-check compose into one
/// audit over the same trace stream.
struct AdversaryContext {
  cli::AdversaryOptions opts;

  explicit AdversaryContext(const cli::FlagRegistry& reg)
      : opts(cli::adversary_options_from(reg)) {}

  void arm(sim::OverlayEngine& engine, FaultContext& fault) {
    if (opts.plan.enabled()) engine.set_adversary(opts.plan);
    if (!opts.capture_path.empty())
      engine.set_capture_trace(opts.capture_path);
    // FaultContext::arm attaches the checker itself when --fault-check is
    // set; only the adversary-only case needs the attachment here.
    if (opts.check && !fault.opts.check)
      engine.attach_checker(&fault.checker);
  }

  /// Exit code: 0 when clean (or unchecked), 4 on abuse-accounting or
  /// abuser-overlay violations.
  int finish(const sim::OverlayEngine& engine,
             sim::InvariantChecker& checker) {
    if (!opts.check) return 0;
    checker.check_abuse(engine.adversary_stats(), engine.abuse_ledger(),
                        engine.ledger());
    checker.check_abuser_overlay(engine.overlay(), engine.abusers());
    if (!checker.ok()) {
      std::fprintf(stderr, "%s", checker.report().c_str());
      return 4;
    }
    const sim::AdversaryStats& s = engine.adversary_stats();
    std::fprintf(stderr,
                 "adversary-check: ok (%llu abusers, %llu abuse queries, "
                 "%llu free-riders, %llu outage victims, %llu storm kicks, "
                 "0 violations)\n",
                 static_cast<unsigned long long>(s.abusers),
                 static_cast<unsigned long long>(s.abuse_queries),
                 static_cast<unsigned long long>(s.free_riders),
                 static_cast<unsigned long long>(s.outage_victims),
                 static_cast<unsigned long long>(s.storm_kicks));
    return 0;
  }
};

/// Parses the flight-recorder group, attaches the configured sink before
/// run(), and exports/prints after.
struct TraceContext {
  std::unique_ptr<obs::RingSink> ring;
  std::string out_path;
  bool spans = false;
  double heartbeat_s = 0.0;

  explicit TraceContext(const cli::FlagRegistry& reg)
      : out_path(reg.get_string("trace-out")),
        spans(reg.get_bool("trace-spans")),
        heartbeat_s(reg.get_double("heartbeat")) {
    const std::string mode = reg.get_string("trace");
    if (mode != "off" && mode != "ring")
      throw std::invalid_argument("--trace: expected off or ring");
    const std::int64_t cap = reg.get_int("trace-buffer");
    if (cap <= 0) throw std::invalid_argument("--trace-buffer: must be > 0");
    if (!(heartbeat_s >= 0.0 && std::isfinite(heartbeat_s)))
      throw std::invalid_argument(
          "--heartbeat: must be a finite period >= 0 sim-seconds");
    if (mode == "ring")
      ring = std::make_unique<obs::RingSink>(static_cast<std::size_t>(cap));
    if ((spans || !out_path.empty()) && !ring)
      throw std::invalid_argument(
          "--trace-out/--trace-spans need --trace ring");
    if (heartbeat_s > 0.0 && !ring)
      throw std::invalid_argument("--heartbeat needs --trace ring");
  }

  void arm(sim::OverlayEngine& engine) {
    if (!ring) return;
    engine.set_trace_sink(ring.get());
    if (heartbeat_s > 0.0) engine.set_heartbeat_period(heartbeat_s);
  }

  /// Exit code: 0 on success, 3 when the export file cannot be written.
  int finish() {
    if (!ring) return 0;
    const auto records = ring->snapshot();
    if (!out_path.empty()) {
      if (!obs::write_chrome_trace_file(out_path, records,
                                        ring->overwritten())) {
        std::fprintf(stderr, "error: cannot write trace to %s\n",
                     out_path.c_str());
        return 3;
      }
      std::fprintf(stderr,
                   "trace: %zu records (%llu overwritten) -> %s\n",
                   records.size(),
                   static_cast<unsigned long long>(ring->overwritten()),
                   out_path.c_str());
    }
    if (spans) {
      const auto summary = obs::reconstruct_spans(records);
      obs::span_table(summary).print(std::cout);
    }
    return 0;
  }
};

/// Parses the open-loop load group once, arms a scenario engine before
/// run() (the engine itself rejects either snapshot direction), and reports
/// the admission/latency figures after.
struct LoadContext {
  bool enabled = false;
  double rate_qps = 0.0;
  std::string schedule;
  double overload = 4.0;
  std::int64_t cap = 8;
  std::string trace_path;

  explicit LoadContext(const cli::FlagRegistry& reg)
      : enabled(reg.get_bool("open-loop")),
        rate_qps(reg.get_double("arrival-rate")),
        schedule(reg.get_string("arrival-schedule")),
        overload(reg.get_double("overload-factor")),
        cap(reg.get_int("admission-cap")),
        trace_path(reg.get_string("load-trace")) {
    if (!enabled && (reg.was_set("arrival-rate") ||
                     reg.was_set("arrival-schedule") ||
                     reg.was_set("overload-factor") ||
                     reg.was_set("admission-cap") ||
                     reg.was_set("load-trace")))
      throw cli::FlagError(
          "--arrival-rate/--arrival-schedule/--overload-factor/"
          "--admission-cap/--load-trace need --open-loop");
    if (enabled && !trace_path.empty() && reg.was_set("arrival-rate"))
      throw cli::FlagError(
          "--load-trace and --arrival-rate are mutually exclusive");
    if (enabled && cap < 1)
      throw cli::FlagError("--admission-cap: must be >= 1");
  }

  /// Builds the options against the scenario's resolved horizon (the
  /// schedule shape windows are fractions of it) and arms the engine.
  void arm(sim::OverlayEngine& engine, double sim_hours) const {
    if (!enabled) return;
    load::OpenLoopOptions o;
    o.enabled = true;
    o.admission_cap = static_cast<std::size_t>(cap);
    if (!trace_path.empty())
      o.trace = load::read_trace(trace_path);
    else
      o.schedule = load::make_schedule(load::parse_schedule(schedule),
                                       rate_qps, overload, sim_hours * 3600.0);
    engine.set_open_loop(std::move(o));
  }

  /// The human-readable summary line for text output.
  void print(const sim::OverlayEngine& engine, double measure_s) const {
    const load::LoadStats& s = engine.load_stats();
    std::printf(
        "open-loop: %llu offered, %llu admitted, %llu rejected (%.1f%%), "
        "goodput %.2f q/s, p50/p95/p99 %.0f/%.0f/%.0f ms, peak queue %llu\n",
        static_cast<unsigned long long>(s.offered),
        static_cast<unsigned long long>(s.admitted),
        static_cast<unsigned long long>(s.rejected),
        s.offered ? 100.0 * static_cast<double>(s.rejected) /
                        static_cast<double>(s.offered)
                  : 0.0,
        measure_s > 0.0
            ? static_cast<double>(s.completed_after_warmup) / measure_s
            : 0.0,
        s.sojourn_hist.quantile(0.50) * 1e3,
        s.sojourn_hist.quantile(0.95) * 1e3,
        s.sojourn_hist.quantile(0.99) * 1e3,
        static_cast<unsigned long long>(s.peak_queue_depth));
  }
};

/// Every optional layer of one run, parsed once from the flags.  arm()
/// readies a freshly constructed scenario engine in the one order all
/// four scenarios share (a snapshot load must precede everything else);
/// finish() exports the trace, runs the requested audits and folds their
/// results into one exit code.
struct Layers {
  FaultContext fault;
  AdversaryContext adv;
  TraceContext trace;
  SnapshotContext snap;
  LoadContext load;

  explicit Layers(const cli::FlagRegistry& reg)
      : fault(reg), adv(reg), trace(reg), snap(reg), load(reg) {}

  void arm(sim::OverlayEngine& engine, double sim_hours) {
    snap.arm(engine);
    load.arm(engine, sim_hours);
    adv.arm(engine, fault);
    fault.arm(engine);
    trace.arm(engine);
  }

  /// Prints the scenario's --json record, with the open-loop `load`
  /// object appended when the layer ran.
  void print_json(metrics::JsonValue out, const sim::OverlayEngine& engine,
                  double measure_s) const {
    if (load.enabled) {
      metrics::JsonValue stats = metrics::JsonValue::object();
      load::write_load_stats(stats, engine.load_stats(), measure_s);
      out.set("load", std::move(stats));
    }
    out.write(std::cout);
    std::cout << '\n';
  }

  /// Exit code: an audit failure (4, adversary before fault) outranks a
  /// failed trace export (3).
  int finish(const sim::OverlayEngine& engine) {
    const int trc = trace.finish();
    const int arc = adv.finish(engine, fault.checker);
    const int frc = fault.finish(engine);
    return arc ? arc : (frc ? frc : trc);
  }
};

/// Parses and cross-validates the ranked-query flag group: --top-k is
/// rejected unless its scheme is selected, and its value is range-checked.
/// Every violation is a typed FlagError (usage exit 2).
sim::SearchStrategyKind ranked_scheme(const cli::FlagRegistry& reg) {
  sim::SearchStrategyKind kind;
  try {
    kind = sim::parse_search_strategy(reg.get_string("search-scheme"));
  } catch (const std::invalid_argument& e) {
    throw cli::FlagError(e.what());
  }
  const bool topk = kind == sim::SearchStrategyKind::kTopK;
  if (reg.was_set("top-k") && !topk)
    throw cli::FlagError("--top-k: requires --search-scheme top-k");
  if (topk && reg.get_int("top-k") < 1)
    throw cli::FlagError("--top-k: must be >= 1");
  return kind;
}

int run_gnutella(const cli::FlagRegistry& reg, bool json) {
  gnutella::Config c;
  c.num_users = population(reg, "users", c.num_users);
  c.max_hops = static_cast<int>(int_or(reg, "hops", c.max_hops));
  c.dynamic = bool_or(reg, "dynamic", c.dynamic);
  c.reconfig_threshold = static_cast<std::uint32_t>(
      int_or(reg, "threshold", c.reconfig_threshold));
  apply_horizon(reg, c.sim_hours, c.warmup_hours);
  c.seed = static_cast<std::uint64_t>(int_or(reg, "seed", 42));
  c.search_strategy = ranked_scheme(reg);
  c.top_k = static_cast<std::uint32_t>(reg.get_int("top-k"));
  c.library_growth = reg.get_bool("library-growth");
  c.exclude_owned_songs = reg.get_bool("exclude-owned");

  Layers layers(reg);
  gnutella::Simulation sim(c);
  layers.arm(sim, c.sim_hours);
  const auto r = sim.run();
  const double measure_s = (c.sim_hours - c.warmup_hours) * 3600.0;
  if (json) {
    metrics::JsonValue out = metrics::JsonValue::object();
    out.set("scenario", metrics::JsonValue::string("gnutella"))
        .set("dynamic", metrics::JsonValue::boolean(c.dynamic))
        .set("search_scheme",
             metrics::JsonValue::string(sim::to_string(c.search_strategy)))
        .set("hops", metrics::JsonValue::number(std::int64_t{c.max_hops}))
        .set("queries", metrics::JsonValue::number(r.queries_issued))
        .set("hits", metrics::JsonValue::number(r.total_hits()))
        .set("results", metrics::JsonValue::number(r.total_results()))
        .set("messages", metrics::JsonValue::number(r.total_messages()))
        .set("control_messages",
             metrics::JsonValue::number(r.traffic.control_traffic()))
        .set("mean_first_result_delay_ms",
             metrics::JsonValue::number(r.first_result_delay_s.mean() * 1e3))
        .set("reconfigurations", metrics::JsonValue::number(r.reconfigurations))
        .set("evictions", metrics::JsonValue::number(r.evictions));
    layers.print_json(std::move(out), sim, measure_s);
  } else {
    std::printf("gnutella (%s, hops=%d): %llu queries, %llu hits, "
                "%llu messages, %.0f ms mean first result\n",
                c.dynamic ? "dynamic" : "static", c.max_hops,
                static_cast<unsigned long long>(r.queries_issued),
                static_cast<unsigned long long>(r.total_hits()),
                static_cast<unsigned long long>(r.total_messages()),
                r.first_result_delay_s.mean() * 1e3);
    if (layers.load.enabled) layers.load.print(sim, measure_s);
  }
  return layers.finish(sim);
}

int run_webcache(const cli::FlagRegistry& reg, bool json) {
  webcache::WebCacheConfig c;
  c.num_proxies = population(reg, "proxies", c.num_proxies);
  c.dynamic = bool_or(reg, "dynamic", c.dynamic);
  apply_horizon(reg, c.sim_hours, c.warmup_hours);
  c.seed = static_cast<std::uint64_t>(int_or(reg, "seed", 7));

  Layers layers(reg);
  webcache::WebCacheSim sim(c);
  layers.arm(sim, c.sim_hours);
  const auto r = sim.run();
  const double measure_s = (c.sim_hours - c.warmup_hours) * 3600.0;
  if (json) {
    metrics::JsonValue out = metrics::JsonValue::object();
    out.set("scenario", metrics::JsonValue::string("webcache"))
        .set("dynamic", metrics::JsonValue::boolean(c.dynamic))
        .set("requests", metrics::JsonValue::number(r.requests))
        .set("local_hit_rate", metrics::JsonValue::number(r.local_hit_rate()))
        .set("neighbor_hit_rate",
             metrics::JsonValue::number(r.neighbor_hit_rate()))
        .set("mean_latency_ms",
             metrics::JsonValue::number(r.latency_s.mean() * 1e3));
    layers.print_json(std::move(out), sim, measure_s);
  } else {
    std::printf("webcache (%s): %llu requests, %.1f%% local, %.1f%% "
                "neighbor-of-miss, %.0f ms mean latency\n",
                c.dynamic ? "dynamic" : "static",
                static_cast<unsigned long long>(r.requests),
                r.local_hit_rate() * 100, r.neighbor_hit_rate() * 100,
                r.latency_s.mean() * 1e3);
    if (layers.load.enabled) layers.load.print(sim, measure_s);
  }
  return layers.finish(sim);
}

int run_olap(const cli::FlagRegistry& reg, bool json) {
  olap::OlapConfig c;
  c.num_peers = population(reg, "peers", c.num_peers);
  c.dynamic = bool_or(reg, "dynamic", c.dynamic);
  apply_horizon(reg, c.sim_hours, c.warmup_hours);
  c.seed = static_cast<std::uint64_t>(int_or(reg, "seed", 11));

  Layers layers(reg);
  olap::OlapSim sim(c);
  layers.arm(sim, c.sim_hours);
  const auto r = sim.run();
  const double measure_s = (c.sim_hours - c.warmup_hours) * 3600.0;
  if (json) {
    metrics::JsonValue out = metrics::JsonValue::object();
    out.set("scenario", metrics::JsonValue::string("olap"))
        .set("dynamic", metrics::JsonValue::boolean(c.dynamic))
        .set("queries", metrics::JsonValue::number(r.queries))
        .set("peer_hit_rate", metrics::JsonValue::number(r.peer_hit_rate()))
        .set("mean_response_s",
             metrics::JsonValue::number(r.response_time_s.mean()));
    layers.print_json(std::move(out), sim, measure_s);
  } else {
    std::printf("olap (%s): %llu queries, %.1f%% peer hits, %.2f s mean "
                "response\n",
                c.dynamic ? "dynamic" : "static",
                static_cast<unsigned long long>(r.queries),
                r.peer_hit_rate() * 100, r.response_time_s.mean());
    if (layers.load.enabled) layers.load.print(sim, measure_s);
  }
  return layers.finish(sim);
}

int run_diglib(const cli::FlagRegistry& reg, bool json) {
  diglib::DigLibConfig c;
  c.num_repositories = population(reg, "repos", c.num_repositories);
  const std::string mode = reg.get_string("mode");
  if (mode == "all") {
    c.mode = diglib::ListMode::kAllToAll;
  } else if (mode == "static") {
    c.mode = diglib::ListMode::kStatic;
  } else if (mode == "adaptive") {
    c.mode = diglib::ListMode::kAdaptive;
  } else {
    throw std::invalid_argument("--mode: unknown value: " + mode);
  }
  apply_horizon(reg, c.sim_hours, c.warmup_hours);
  c.seed = static_cast<std::uint64_t>(int_or(reg, "seed", 17));
  c.search_strategy = ranked_scheme(reg);
  c.top_k = static_cast<std::uint32_t>(reg.get_int("top-k"));

  Layers layers(reg);
  diglib::DigLibSim sim(c);
  layers.arm(sim, c.sim_hours);
  const auto r = sim.run();
  const double measure_s = (c.sim_hours - c.warmup_hours) * 3600.0;
  if (json) {
    metrics::JsonValue out = metrics::JsonValue::object();
    out.set("scenario", metrics::JsonValue::string("diglib"))
        .set("mode", metrics::JsonValue::string(mode))
        .set("search_scheme",
             metrics::JsonValue::string(sim::to_string(c.search_strategy)))
        .set("queries", metrics::JsonValue::number(r.queries))
        .set("hit_rate", metrics::JsonValue::number(r.hit_rate()))
        .set("recall", metrics::JsonValue::number(r.recall()))
        .set("messages_per_query",
             metrics::JsonValue::number(r.messages_per_query.mean()));
    layers.print_json(std::move(out), sim, measure_s);
  } else {
    std::printf("diglib (%s): %llu queries, %.1f%% hit rate, recall %.3f, "
                "%.1f msgs/query\n",
                mode.c_str(), static_cast<unsigned long long>(r.queries),
                r.hit_rate() * 100, r.recall(),
                r.messages_per_query.mean());
    if (layers.load.enabled) layers.load.print(sim, measure_s);
  }
  return layers.finish(sim);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    cli::FlagRegistry reg = make_registry();
    const cli::Args& args = reg.parse(argc, argv);
    if (reg.help_requested()) {
      std::fputs(reg.help().c_str(), stdout);
      return 0;
    }
    if (args.positional().size() != 1) return usage();
    const bool json = reg.get_bool("json");

    const std::string& scenario = args.positional().front();
    reject_unread_flags(reg, scenario);
    if (scenario == "gnutella") return run_gnutella(reg, json);
    if (scenario == "webcache") return run_webcache(reg, json);
    if (scenario == "olap") return run_olap(reg, json);
    if (scenario == "diglib") return run_diglib(reg, json);
    return usage();
  } catch (const std::invalid_argument& e) {
    // Usage errors: the typed flag-error family (unknown options, type
    // mismatches, overflows) and every value or layer combination the
    // scenarios reject while validating their input.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const dsf::snap::SnapshotError& e) {
    // A corrupt, truncated or mismatched snapshot file fails closed: no
    // partial state was applied and no simulation ran.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 5;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
