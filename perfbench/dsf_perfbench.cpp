// dsf_perfbench — one process of the simulator benchmark.  It builds one
// workload through the scenarios' public Config and constructor, runs it
// to the horizon, and prints one JSON object: host timings, the simulated
// counters the per-layer metrics are made of, and a fingerprint of the
// simulated outputs.  perfbench/run.py spawns it (one process per run) and
// turns the objects into the benchmark's metrics; perfbench/README.md
// defines the workloads and metrics.
//
//   dsf_perfbench --workload NAME --seed N [--mode run|setup|traced|bare]
//                 [--horizon-scale X]
//
//   run     construct + run() untraced (one end-to-end sample)
//   setup   construct only (one more cold set-up sample)
//   traced  time the workload generators, then construct + run() with the
//           benchmark's own TraceSink attached (search spans, send counts)
//   bare    overload_certified's open-loop stream with its fault, checker,
//           recorder and adversary layers absent
//
// Everything is read through public API: the result structs, ledger(),
// simulator(), load_stats(), adversary_stats(), overlay() and
// libraries().  Exit 0 on success, 2 on bad arguments, 1 on any error.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "des/rng.h"
#include "diglib/diglib_sim.h"
#include "gnutella/simulation.h"
#include "load/schedule.h"
#include "metrics/json.h"
#include "obs/ring_sink.h"
#include "olap/olap_sim.h"
#include "sim/invariants.h"
#include "webcache/webcache_sim.h"
#include "workload/catalog.h"
#include "workload/library.h"
#include "workload/user_profile.h"

namespace {

using namespace dsf;
using Clock = std::chrono::steady_clock;
using metrics::JsonValue;

const Clock::time_point kOrigin = Clock::now();

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

JsonValue num(double v) { return JsonValue::number(v); }
template <typename T>
  requires std::is_unsigned_v<T>
JsonValue num(T v) {
  return JsonValue::number(static_cast<std::uint64_t>(v));
}

/// Peak resident set of this process in MiB: VmHWM from /proc/self/status.
/// getrusage's ru_maxrss is not used because it keeps the high-water mark
/// of the image before exec, so a child of a large parent (run.py's
/// Python) would report the parent's size.  Returns 0 when unavailable.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return 0.0;
}

enum class Mode { kRun, kSetup, kTraced, kBare };

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  Mode mode = Mode::kRun;
  double horizon_scale = 1.0;
};

/// FNV-1a over 64-bit words: the fingerprint of a run's simulated outputs.
class Fingerprint {
 public:
  void add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ULL;
    }
  }
  void add(double v) noexcept { add(std::bit_cast<std::uint64_t>(v)); }
  /// Sent, dropped and byte counts per message type.  Delivery counts are
  /// left out: the engine keeps them only on its traced transmission path,
  /// so they would tell a traced run from an untraced one.
  void add_ledger(const sim::MessageLedger& ledger) noexcept {
    for (int i = 0; i < net::kNumMessageTypes; ++i) {
      const auto t = static_cast<net::MessageType>(i);
      add(ledger.stats().total(t));
      add(ledger.dropped(t));
      add(ledger.bytes(t));
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

// --- the benchmark's trace sink ----------------------------------------------

/// Search-span statistics: what SpanSink reports, mergeable across the
/// scenarios of one process.
struct SearchStats {
  std::vector<std::uint32_t> durations_ns;  ///< one per closed span
  std::uint64_t begins = 0, ends = 0, unpaired = 0, hits = 0;
  std::uint64_t span_query_sends = 0, span_receivers = 0;
  std::uint64_t records = 0, sends = 0, drops = 0;
  std::uint64_t sends_by_type[net::kNumMessageTypes] = {};

  void merge(const SearchStats& o) {
    for (int i = 0; i < net::kNumMessageTypes; ++i)
      sends_by_type[i] += o.sends_by_type[i];
    durations_ns.insert(durations_ns.end(), o.durations_ns.begin(),
                        o.durations_ns.end());
    begins += o.begins;
    ends += o.ends;
    unpaired += o.unpaired;
    hits += o.hits;
    span_query_sends += o.span_query_sends;
    span_receivers += o.span_receivers;
    records += o.records;
    sends += o.sends;
    drops += o.drops;
  }

  JsonValue json() const {
    std::vector<std::uint32_t> d = durations_ns;
    std::uint64_t busy_ns = 0;
    for (std::uint32_t x : d) busy_ns += x;
    const auto quantile_us = [&d](double q) {
      if (d.empty()) return 0.0;
      const auto k = static_cast<std::size_t>(q * static_cast<double>(d.size() - 1));
      std::nth_element(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(k),
                       d.end());
      return static_cast<double>(d[k]) * 1e-3;
    };
    JsonValue by_type = JsonValue::object();
    for (int i = 0; i < net::kNumMessageTypes; ++i)
      by_type.set(
          std::string(net::to_string(static_cast<net::MessageType>(i))),
          num(sends_by_type[i]));
    JsonValue out = JsonValue::object();
    out.set("spans", num(d.size()))
        .set("busy_s", num(static_cast<double>(busy_ns) * 1e-9))
        .set("p50_us", num(quantile_us(0.50)))
        .set("p999_us", num(quantile_us(0.999)))
        .set("begins", num(begins))
        .set("ends", num(ends))
        .set("unpaired", num(unpaired))
        .set("hits", num(hits))
        .set("span_query_sends", num(span_query_sends))
        .set("span_receivers", num(span_receivers))
        .set("records", num(records))
        .set("sends", num(sends))
        .set("sends_by_type", std::move(by_type))
        .set("drops", num(drops));
    return out;
  }
};

/// The benchmark's TraceSink.  It reads steady_clock only at search-begin
/// and search-end records, which gives one span per search, keyed by the
/// engine's span id (its parent is the benchmark's run span); every other
/// record is only counted.  Span durations go to a buffer reserved up
/// front and are summarized when the run ends.  An optional forward sink
/// receives every record first (overload_certified's flight recorder).
class SpanSink final : public obs::TraceSink {
 public:
  /// Spans reserved up front: about one full-horizon workload's searches.
  static constexpr std::size_t kReservedSpans = std::size_t{1} << 20;

  SpanSink(std::size_t num_nodes, obs::TraceSink* forward)
      : forward_(forward), stamps_(num_nodes, 0) {
    stats_.durations_ns.reserve(kReservedSpans);
  }

  void record(const obs::Record& r) noexcept override {
    if (forward_) forward_->record(r);
    ++stats_.records;
    switch (r.kind) {
      case obs::RecordKind::kSearchBegin:
        ++stats_.begins;
        if (open_ != 0) ++stats_.unpaired;
        open_ = r.span;
        open_at_ = Clock::now();
        break;
      case obs::RecordKind::kSearchEnd: {
        const Clock::time_point now = Clock::now();
        ++stats_.ends;
        if (open_ == 0 || r.span != open_) {
          ++stats_.unpaired;
        } else {
          const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              now - open_at_)
                              .count();
          stats_.durations_ns.push_back(static_cast<std::uint32_t>(
              std::min<std::int64_t>(ns, UINT32_MAX)));
          if (r.unpack_results() > 0) ++stats_.hits;
        }
        open_ = 0;
        break;
      }
      case obs::RecordKind::kSend:
        stats_.sends += r.b;  // copies (a duplicated transmission is 2)
        stats_.sends_by_type[r.type % net::kNumMessageTypes] += r.b;
        if (open_ != 0 &&
            r.type == static_cast<std::uint8_t>(net::MessageType::kQuery)) {
          ++stats_.span_query_sends;
          if (r.to < stamps_.size() && stamps_[r.to] != open_) {
            stamps_[r.to] = open_;
            ++stats_.span_receivers;
          }
        }
        break;
      case obs::RecordKind::kDrop:
        stats_.drops += r.b;
        break;
      default:
        break;
    }
  }

  const SearchStats& stats() const noexcept { return stats_; }

 private:
  obs::TraceSink* forward_;
  SearchStats stats_;
  std::uint32_t open_ = 0;  ///< span id of the open search, 0 = none
  Clock::time_point open_at_{};
  std::vector<std::uint32_t> stamps_;  ///< last span whose query reached a node
};

/// The benchmark's own spans around its calls into the program.
class BenchSpans {
 public:
  /// Opens a span; ids start at 1, parent 0 = none.
  std::size_t begin(std::string name, std::size_t parent) {
    spans_.push_back({std::move(name), parent, Clock::now(), Clock::now()});
    return spans_.size();
  }
  void end(std::size_t id) { spans_[id - 1].end = Clock::now(); }
  double seconds(std::size_t id) const {
    return seconds_between(spans_[id - 1].start, spans_[id - 1].end);
  }
  JsonValue json() const {
    JsonValue out = JsonValue::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      JsonValue s = JsonValue::object();
      s.set("id", num(i + 1))
          .set("name", JsonValue::string(spans_[i].name))
          .set("parent", num(spans_[i].parent))
          .set("start_s", num(seconds_between(kOrigin, spans_[i].start)))
          .set("end_s", num(seconds_between(kOrigin, spans_[i].end)));
      out.push(std::move(s));
    }
    return out;
  }

 private:
  struct Span {
    std::string name;
    std::size_t parent;
    Clock::time_point start, end;
  };
  std::vector<Span> spans_;
};

/// Engine-level counters every scenario shares (des, net, overlay).
JsonValue engine_counters(sim::OverlayEngine& e) {
  des::Simulator& s = e.simulator();
  const sim::MessageLedger& l = e.ledger();
  JsonValue by_type = JsonValue::object();
  for (int i = 0; i < net::kNumMessageTypes; ++i) {
    const auto t = static_cast<net::MessageType>(i);
    by_type.set(std::string(net::to_string(t)), num(l.stats().total(t)));
  }
  JsonValue out = JsonValue::object();
  out.set("events", num(s.executed()))
      .set("pending_end", num(s.pending()))
      .set("scheduled", num(s.queue().total_scheduled()))
      .set("messages", num(l.stats().total()))
      .set("messages_by_type", std::move(by_type))
      .set("bytes", num(l.total_bytes()))
      .set("dropped", num(l.total_dropped()))
      .set("overlay_bytes", num(e.overlay().memory_bytes()));
  return out;
}

// --- gnutella workloads --------------------------------------------------------

struct GnutellaWorkload {
  gnutella::Config config;
  bool layers = false;  ///< overload_certified's optional layers
  double base_qps = 30.0;
  double step_factor = 3.0;
  std::size_t admission_cap = 4;
  double fault_drop = 0.01;
  double abuser_fraction = 0.05;
  double abuse_rate_per_s = 0.05;
  std::size_t ring_capacity = obs::RingSink::kDefaultCapacity;

  JsonValue params() const {
    const gnutella::Config& c = config;
    JsonValue p = JsonValue::object();
    p.set("scenario", JsonValue::string("gnutella"))
        .set("seed", num(c.seed))
        .set("users", num(c.num_users))
        .set("sim_hours", num(c.sim_hours))
        .set("warmup_hours", num(c.warmup_hours))
        .set("max_hops", num(static_cast<std::uint64_t>(c.max_hops)))
        .set("dynamic", JsonValue::boolean(c.dynamic))
        .set("search_scheme",
             JsonValue::string(sim::to_string(c.search_strategy)))
        .set("songs", num(c.catalog.num_songs))
        .set("categories", num(c.catalog.num_categories))
        .set("library_mean", num(c.library.mean_size))
        .set("max_neighbors", num(c.max_neighbors))
        .set("reconfig_threshold", num(c.reconfig_threshold));
    if (layers)
      p.set("open_loop_schedule", JsonValue::string("step"))
          .set("open_loop_base_qps", num(base_qps))
          .set("open_loop_step_factor", num(step_factor))
          .set("admission_cap", num(admission_cap))
          .set("fault_drop", num(fault_drop))
          .set("checker", JsonValue::string("overlay+ledger+admission+abuse"))
          .set("recorder_capacity", num(ring_capacity))
          .set("abuser_fraction", num(abuser_fraction))
          .set("abuse_rate_per_s", num(abuse_rate_per_s));
    return p;
  }
};

std::optional<GnutellaWorkload> gnutella_workload(const Options& o) {
  GnutellaWorkload w;
  gnutella::Config& c = w.config;
  c.seed = o.seed;
  c.max_hops = 2;
  c.search_strategy = gnutella::SearchStrategy::kFlood;
  if (o.workload == "paper_dynamic") {  // Fig 1's settings
    c.num_users = 2000;
    c.sim_hours = 96.0;
    c.warmup_hours = 12.0;
    c.dynamic = true;
  } else if (o.workload == "static_50k") {
    c.num_users = 50'000;
    c.sim_hours = 2.0;
    c.warmup_hours = 0.5;
    c.dynamic = false;
  } else if (o.workload == "overload_certified") {
    c.num_users = 500;
    c.sim_hours = 6.0;
    c.warmup_hours = 1.0;
    c.dynamic = true;
    w.layers = true;
  } else {
    return std::nullopt;
  }
  c.sim_hours *= o.horizon_scale;
  c.warmup_hours *= o.horizon_scale;
  return w;
}

/// One gnutella scenario with overload_certified's open-loop stream and,
/// unless `bare`, its optional layers, armed in the order dsf_sim arms
/// them.
struct GnutellaRun {
  std::unique_ptr<gnutella::Simulation> sim;
  std::unique_ptr<sim::InvariantChecker> checker;
  std::unique_ptr<obs::RingSink> ring;

  GnutellaRun(const GnutellaWorkload& w, bool bare)
      : sim(std::make_unique<gnutella::Simulation>(w.config)) {
    if (!w.layers) return;
    load::OpenLoopOptions o;
    o.enabled = true;
    o.admission_cap = w.admission_cap;
    o.schedule = load::make_schedule(load::ScheduleKind::kStep, w.base_qps,
                                     w.step_factor,
                                     w.config.sim_hours * 3600.0);
    sim->set_open_loop(std::move(o));
    if (bare) return;
    sim::AdversaryPlan plan;
    plan.abuser_fraction = w.abuser_fraction;
    plan.abuse_rate_per_s = w.abuse_rate_per_s;
    sim->set_adversary(plan);
    sim::FaultPlan faults;
    sim::FaultRule rule;
    rule.drop_prob = w.fault_drop;
    faults.set_rule_all(rule);
    sim->set_fault_plan(faults);
    checker = std::make_unique<sim::InvariantChecker>();
    sim->attach_checker(checker.get());
    ring = std::make_unique<obs::RingSink>(w.ring_capacity);
    sim->set_trace_sink(ring.get());
  }
};

/// Times the workload generators the gnutella constructor uses, called
/// directly with the workload's parameters.
JsonValue time_generators(const gnutella::Config& c, BenchSpans& spans,
                          std::size_t parent) {
  const std::size_t cat_span = spans.begin("workload.catalog", parent);
  const workload::Catalog catalog(c.catalog);
  spans.end(cat_span);
  const std::size_t lib_span = spans.begin("workload.libraries", parent);
  const workload::ProfileGenerator profiles(catalog, c.user_zipf_theta);
  const workload::LibraryGenerator libraries(catalog, c.library);
  des::Rng rng(des::hash_seed(c.seed, 0x11b5u));
  std::uint64_t items = 0;
  for (std::uint32_t u = 0; u < c.num_users; ++u)
    items += libraries.generate(profiles.generate(rng), rng).size();
  spans.end(lib_span);
  JsonValue out = JsonValue::object();
  out.set("catalog_s", num(spans.seconds(cat_span)))
      .set("libraries_s", num(spans.seconds(lib_span)))
      .set("library_items", num(items));
  return out;
}

/// A process's measured record, filled in by the scenario runners.
struct Measured {
  JsonValue out = JsonValue::object();
  BenchSpans spans;
  std::size_t root = spans.begin("process", 0);
  Fingerprint fp;
  SearchStats search;
  double setup_s = 0.0, run_s = 0.0;
  std::uint64_t queries = 0, attempted = 0, violations = 0;
};

void run_gnutella(const Options& o, const GnutellaWorkload& w, Measured& m) {
  m.out.set("params", w.params());
  if (o.mode == Mode::kTraced)
    m.out.set("generators", time_generators(w.config, m.spans, m.root));

  const std::size_t construct = m.spans.begin("construct", m.root);
  GnutellaRun run(w, o.mode == Mode::kBare);
  std::unique_ptr<SpanSink> sink;
  if (o.mode == Mode::kTraced) {
    sink = std::make_unique<SpanSink>(run.sim->num_nodes(), run.ring.get());
    run.sim->set_trace_sink(sink.get());
  }
  m.spans.end(construct);
  m.setup_s = m.spans.seconds(construct);
  if (o.mode == Mode::kSetup) return;

  const std::size_t run_span = m.spans.begin("run", m.root);
  const gnutella::RunResult r = run.sim->run();
  m.spans.end(run_span);
  m.run_s = m.spans.seconds(run_span);
  gnutella::Simulation& s = *run.sim;
  if (sink) m.search = sink->stats();

  const load::LoadStats& ls = s.load_stats();
  const sim::AdversaryStats& as = s.adversary_stats();
  for (std::uint64_t v :
       {r.queries_issued, r.total_hits(), r.total_results(),
        r.total_messages(), r.local_hits, r.reconfigurations,
        r.invitations_accepted, r.evictions, ls.offered, ls.admitted,
        ls.rejected, ls.completed, ls.shed, ls.pending, ls.hits,
        ls.completed_after_warmup, as.abusers, as.abuse_queries,
        as.abuse_hits, s.simulator().executed()})
    m.fp.add(v);
  m.fp.add(r.first_result_delay_s.sum());
  m.fp.add_ledger(s.ledger());

  if (run.checker) {
    sim::InvariantChecker& ck = *run.checker;
    ck.check_overlay(s.overlay());
    ck.check_ledger(s.ledger());
    ck.check_admission(ls);
    ck.check_abuse(as, s.abuse_ledger(), s.ledger());
    ck.check_abuser_overlay(s.overlay(), s.abusers());
    m.violations = ck.total_violations();
    if (!ck.ok()) std::fprintf(stderr, "%s", ck.report().c_str());
  }
  m.queries = r.queries_issued + ls.completed_after_warmup;
  m.attempted = r.queries_issued + ls.offered;

  JsonValue c = engine_counters(s);
  c.set("closed_queries", num(r.queries_issued))
      .set("reconfigurations", num(r.reconfigurations))
      .set("invitations", num(r.invitations_accepted))
      .set("evictions", num(r.evictions))
      .set("library_bytes", num(s.libraries().memory_bytes()))
      .set("load_offered", num(ls.offered))
      .set("load_admitted", num(ls.admitted))
      .set("load_refused", num(ls.rejected))
      .set("load_shed", num(ls.shed))
      .set("load_completed_after_warmup", num(ls.completed_after_warmup))
      .set("load_sojourn_p50_s",
           num(ls.offered ? ls.sojourn_hist.quantile(0.50) : 0.0))
      .set("load_sojourn_p99_s",
           num(ls.offered ? ls.sojourn_hist.quantile(0.99) : 0.0))
      .set("load_queue_depth_peak", num(ls.peak_queue_depth))
      .set("checker_events",
           num(run.checker ? run.checker->events_seen() : std::uint64_t{0}))
      .set("abuse_queries", num(as.abuse_queries))
      .set("abuse_messages", num(s.abuse_ledger().stats().total()))
      .set("recorder_records",
           num(run.ring ? run.ring->total() : std::uint64_t{0}));
  m.out.set("counters", std::move(c));
}

// --- framework_mix -------------------------------------------------------------

struct FrameworkMix {
  webcache::WebCacheConfig webcache;
  olap::OlapConfig olap;
  diglib::DigLibConfig diglib;

  explicit FrameworkMix(const Options& o) {
    webcache.num_proxies = 64;
    webcache.sim_hours = 6.0;
    olap.num_peers = 48;
    olap.sim_hours = 12.0;
    diglib.num_repositories = 64;
    diglib.mode = diglib::ListMode::kAdaptive;
    diglib.sim_hours = 12.0;
    webcache.seed = des::hash_seed(o.seed, 1);
    olap.seed = des::hash_seed(o.seed, 2);
    diglib.seed = des::hash_seed(o.seed, 3);
    for (double* h : {&webcache.sim_hours, &webcache.warmup_hours,
                      &olap.sim_hours, &olap.warmup_hours, &diglib.sim_hours,
                      &diglib.warmup_hours})
      *h *= o.horizon_scale;
  }

  /// Derived seeds go out as decimal strings: JsonValue stores unsigned
  /// numbers as int64, and a hash_seed value can exceed its range.
  JsonValue params() const {
    JsonValue w = JsonValue::object();
    w.set("proxies", num(webcache.num_proxies))
        .set("sim_hours", num(webcache.sim_hours))
        .set("warmup_hours", num(webcache.warmup_hours))
        .set("dynamic", JsonValue::boolean(webcache.dynamic))
        .set("pages", num(webcache.num_pages))
        .set("cache_capacity", num(webcache.cache_capacity))
        .set("seed", JsonValue::string(std::to_string(webcache.seed)));
    JsonValue ol = JsonValue::object();
    ol.set("peers", num(olap.num_peers))
        .set("sim_hours", num(olap.sim_hours))
        .set("warmup_hours", num(olap.warmup_hours))
        .set("dynamic", JsonValue::boolean(olap.dynamic))
        .set("chunks", num(olap.num_chunks))
        .set("max_hops", num(static_cast<std::uint64_t>(olap.max_hops)))
        .set("seed", JsonValue::string(std::to_string(olap.seed)));
    JsonValue d = JsonValue::object();
    d.set("repositories", num(diglib.num_repositories))
        .set("sim_hours", num(diglib.sim_hours))
        .set("warmup_hours", num(diglib.warmup_hours))
        .set("mode", JsonValue::string("adaptive"))
        .set("docs", num(diglib.num_docs))
        .set("max_hops", num(static_cast<std::uint64_t>(diglib.max_hops)))
        .set("search_scheme",
             JsonValue::string(sim::to_string(diglib.search_strategy)))
        .set("seed", JsonValue::string(std::to_string(diglib.seed)));
    JsonValue p = JsonValue::object();
    p.set("scenario", JsonValue::string("webcache,olap,diglib"))
        .set("webcache", std::move(w))
        .set("olap", std::move(ol))
        .set("diglib", std::move(d));
    return p;
  }
};

/// What one framework scenario's result contributes: its reported queries
/// and its share of the fingerprint.
struct PhaseResult {
  std::uint64_t queries = 0;
  double hit_ratio = 0.0;
};

PhaseResult phase_result(const webcache::WebCacheResult& r, Fingerprint& fp) {
  for (std::uint64_t v :
       {r.requests, r.local_hits, r.neighbor_hits, r.origin_fetches})
    fp.add(v);
  fp.add(r.latency_s.sum());
  return {r.requests, r.requests ? static_cast<double>(r.local_hits +
                                                       r.neighbor_hits) /
                                       static_cast<double>(r.requests)
                                 : 0.0};
}
PhaseResult phase_result(const olap::OlapResult& r, Fingerprint& fp) {
  for (std::uint64_t v : {r.queries, r.chunks_requested, r.chunks_local,
                          r.chunks_from_peers, r.chunks_from_warehouse})
    fp.add(v);
  fp.add(r.response_time_s.sum());
  return {r.queries, r.peer_hit_rate()};
}
PhaseResult phase_result(const diglib::DigLibResult& r, Fingerprint& fp) {
  for (std::uint64_t v :
       {r.queries, r.satisfied, r.copies_found, r.copies_available})
    fp.add(v);
  fp.add(r.first_result_delay_s.sum());
  return {r.queries, r.hit_rate()};
}

/// Constructs, runs and tears down one framework scenario.
template <typename Sim, typename Config>
JsonValue run_phase(const char* name, const Config& config, const Options& o,
                    Measured& m) {
  const std::string n(name);
  const std::size_t construct = m.spans.begin(n + ".construct", m.root);
  auto s = std::make_unique<Sim>(config);
  std::unique_ptr<SpanSink> sink;
  if (o.mode == Mode::kTraced) {
    sink = std::make_unique<SpanSink>(s->num_nodes(), nullptr);
    s->set_trace_sink(sink.get());
  }
  m.spans.end(construct);
  m.setup_s += m.spans.seconds(construct);
  JsonValue out = JsonValue::object();
  out.set("setup_s", num(m.spans.seconds(construct)));
  if (o.mode == Mode::kSetup) return out;

  const std::size_t run_span = m.spans.begin(n + ".run", m.root);
  const auto r = s->run();
  m.spans.end(run_span);
  m.run_s += m.spans.seconds(run_span);
  const PhaseResult p = phase_result(r, m.fp);
  m.fp.add(s->simulator().executed());
  m.fp.add_ledger(s->ledger());
  m.queries += p.queries;
  m.attempted += p.queries;

  JsonValue c = engine_counters(*s);
  c.set("queries", num(p.queries)).set("hit_ratio", num(p.hit_ratio));
  out.set("run_s", num(m.spans.seconds(run_span)))
      .set("counters", std::move(c));
  if (sink) {
    out.set("search", sink->stats().json());
    m.search.merge(sink->stats());
  }
  return out;
}

void run_framework_mix(const Options& o, Measured& m) {
  const FrameworkMix mix(o);
  m.out.set("params", mix.params());
  JsonValue phases = JsonValue::object();
  phases.set("webcache",
             run_phase<webcache::WebCacheSim>("webcache", mix.webcache, o, m));
  phases.set("olap", run_phase<olap::OlapSim>("olap", mix.olap, o, m));
  phases.set("diglib",
             run_phase<diglib::DigLibSim>("diglib", mix.diglib, o, m));
  m.out.set("phases", std::move(phases));
}

// --- command line ----------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: dsf_perfbench --workload "
               "paper_dynamic|static_50k|overload_certified|framework_mix\n"
               "                     --seed N [--mode run|setup|traced|bare]"
               " [--horizon-scale X]\n");
  return 2;
}

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  if (argc % 2 == 0) return std::nullopt;  // flags come in pairs
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return std::nullopt;
    } else if (key == "--horizon-scale") {
      o.horizon_scale = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.horizon_scale > 0.0)) return std::nullopt;
    } else if (key == "--mode") {
      if (value == "run") o.mode = Mode::kRun;
      else if (value == "setup") o.mode = Mode::kSetup;
      else if (value == "traced") o.mode = Mode::kTraced;
      else if (value == "bare") o.mode = Mode::kBare;
      else return std::nullopt;
    } else {
      return std::nullopt;
    }
  }
  if (o.workload.empty()) return std::nullopt;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> opts = parse(argc, argv);
  if (!opts) return usage();
  const Options& o = *opts;
  try {
    Measured m;
    if (const auto w = gnutella_workload(o)) {
      if (o.mode == Mode::kBare && !w->layers) return usage();
      run_gnutella(o, *w, m);
    } else if (o.workload == "framework_mix" && o.mode != Mode::kBare) {
      run_framework_mix(o, m);
    } else {
      return usage();
    }
    m.spans.end(m.root);
    m.out.set("workload", JsonValue::string(o.workload))
        .set("setup_s", num(m.setup_s))
        .set("peak_rss_mib", num(peak_rss_mib()));
    if (o.mode != Mode::kSetup) {
      m.out.set("run_s", num(m.run_s))
          .set("wall_s", num(m.setup_s + m.run_s))
          .set("queries", num(m.queries))
          .set("attempted", num(m.attempted))
          .set("violations", num(m.violations))
          .set("fingerprint", JsonValue::string(m.fp.hex()));
    }
    if (o.mode == Mode::kTraced)
      m.out.set("search", m.search.json()).set("spans", m.spans.json());
    m.out.set("compiler", JsonValue::string("g++ " __VERSION__))
        .set("build_type", JsonValue::string(DSF_PERFBENCH_BUILD_TYPE));
    std::cout << m.out.to_string() << '\n';
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
