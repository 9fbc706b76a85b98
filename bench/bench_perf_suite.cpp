// Perf-regression suite: the three tiers of the simulator's hot path —
// raw event-queue operations, the flood fan-out loop, and a full
// Gnutella simulated day — timed wall-clock and emitted as one JSON
// document (schema dsf-perf-suite-v1) that CI archives per commit.
// Comparing the `items_per_s` fields across commits is the regression
// check; BENCH_PR3.json at the repo root pins the numbers this tree
// produced when the zero-allocation queue landed.
//
// Usage: bench_perf_suite [--quick] [--out PATH] [--trace off|ring]
//                         [--repeat N]
//   --quick   ~10x smaller budgets, for CI smoke runs
//   --out     JSON output path (default: perf_suite.json in the cwd)
//   --trace   attach the flight recorder (a RingSink) to gnutella_day; CI
//             runs the suite under off and ring and asserts the queue-ops
//             rows, which never reach the engine, stay within 5%
//   --repeat  best-of-N per benchmark, to damp runner noise

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/flag_registry.h"
#include "core/flood_search.h"
#include "des/event_queue.h"
#include "des/rng.h"
#include "gnutella/config.h"
#include "gnutella/simulation.h"
#include "metrics/json.h"
#include "net/delay_model.h"
#include "obs/process_stats.h"
#include "obs/ring_sink.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Result {
  std::string name;
  std::uint64_t items = 0;  // events / floods / messages processed
  double wall_s = 0.0;
  double items_per_s = 0.0;
  std::string detail;  // free-form scenario parameters
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Best-of-N wrapper: reruns `fn` and keeps the fastest run, so CI's
/// overhead comparisons measure the code, not the noisy neighbor.
template <typename Fn>
Result best_of(int repeat, Fn&& fn) {
  Result best = fn();
  for (int i = 1; i < repeat; ++i) {
    Result r = fn();
    if (r.items_per_s > best.items_per_s) best = std::move(r);
  }
  return best;
}

/// Hold-model schedule+pop throughput at a standing population; each
/// popped event's payload is read, as the simulator's handler would.
Result run_queue_ops(std::size_t population, std::uint64_t ops) {
  dsf::des::EventQueue q;
  dsf::des::Rng rng(1);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < population; ++i)
    q.schedule(rng.uniform(0.0, 100.0), dsf::des::Event{1, i, 0});
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const auto [t, ev] = q.pop();
    acc += ev.a;
    q.schedule(t + rng.uniform(0.0, 100.0),
               dsf::des::Event{1, acc & 0xffff, 0});
  }
  const double wall = seconds_since(t0);
  Result r;
  r.name = "queue_ops_p" + std::to_string(population);
  r.items = ops;
  r.wall_s = wall;
  r.items_per_s = static_cast<double>(ops) / wall;
  r.detail = "standing population " + std::to_string(population) +
             ", schedule+pop+dispatch per item";
  if (acc == 0) r.detail += " (!)";  // keep the accumulator observable
  return r;
}

/// Fan-out insertion then drain, the shape of event_flood's per-hop
/// dispatch.
Result run_queue_batch(std::size_t fanout, std::uint64_t rounds) {
  dsf::des::EventQueue q;
  dsf::des::Rng rng(11);
  std::uint64_t acc = 0;
  double now = 0.0;
  const auto t0 = Clock::now();
  for (std::uint64_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < fanout; ++i)
      q.schedule(now + rng.uniform(0.0, 100.0), dsf::des::Event{1, i, 0});
    for (std::size_t i = 0; i < fanout; ++i) {
      const auto [t, ev] = q.pop();
      acc += ev.a;
      now = t;
    }
  }
  const double wall = seconds_since(t0);
  Result r;
  r.name = "queue_batch_f" + std::to_string(fanout);
  r.items = rounds * fanout;
  r.wall_s = wall;
  r.items_per_s = static_cast<double>(r.items) / wall;
  r.detail = "fan-out " + std::to_string(fanout) + " + drain";
  if (acc == 0) r.detail += " (!)";  // keep the accumulator observable
  return r;
}

/// The flood expansion over a 2000-node overlay — the inner loop of every
/// Gnutella figure bench.  Items are query messages, the paper's own
/// overhead unit.
Result run_flood_fanout(std::uint64_t floods) {
  const std::size_t n = 2000;
  dsf::des::Rng rng(8);
  std::vector<std::vector<dsf::net::NodeId>> adj(n);
  for (dsf::net::NodeId u = 0; u < n; ++u) {
    while (adj[u].size() < 4) {
      const auto v = static_cast<dsf::net::NodeId>(rng.uniform_int(n));
      if (v != u && adj[v].size() < 6) {
        adj[u].push_back(v);
        adj[v].push_back(u);
      }
    }
  }
  std::vector<bool> holder(n);
  for (std::size_t i = 0; i < n; ++i) holder[i] = rng.bernoulli(0.05);

  dsf::core::VisitStamp stamps(n);
  dsf::core::SearchScratch scratch;
  dsf::core::SearchParams params;
  params.max_hops = 4;
  dsf::des::Rng delay_rng(9);

  std::uint64_t messages = 0;
  dsf::net::NodeId initiator = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t f = 0; f < floods; ++f) {
    const auto out = dsf::core::flood_search(
        initiator, params,
        [&](dsf::net::NodeId x) -> const std::vector<dsf::net::NodeId>& {
          return adj[x];
        },
        [&](dsf::net::NodeId x) { return static_cast<bool>(holder[x]); },
        [&](dsf::net::NodeId, dsf::net::NodeId) {
          return delay_rng.uniform();
        },
        stamps, scratch);
    messages += out.query_messages;
    initiator = (initiator + 1) % n;
  }
  const double wall = seconds_since(t0);
  Result r;
  r.name = "flood_fanout";
  r.items = messages;
  r.wall_s = wall;
  r.items_per_s = static_cast<double>(messages) / wall;
  r.detail = std::to_string(floods) + " floods, hops=4, 2000 nodes; " +
             "items are query messages";
  return r;
}

/// End-to-end: one simulated Gnutella day (or a short slice in quick
/// mode) through the full engine stack.  Items are total wire messages.
/// `sink` (optional) attaches the flight recorder — the engine-tier
/// overhead measurement.
Result run_gnutella_day(bool quick, dsf::obs::TraceSink* sink) {
  dsf::gnutella::Config config;
  config.sim_hours = quick ? 2.0 : 24.0;
  config.warmup_hours = quick ? 0.5 : 6.0;
  config.num_users = quick ? 500 : 2000;
  config.max_hops = 2;
  config.seed = 42;
  const auto t0 = Clock::now();
  dsf::gnutella::Simulation sim(config);
  if (sink != nullptr) sim.set_trace_sink(sink);
  const auto result = sim.run();
  const double wall = seconds_since(t0);
  Result r;
  r.name = "gnutella_day";
  r.items = result.traffic.total();
  r.wall_s = wall;
  r.items_per_s = static_cast<double>(r.items) / wall;
  r.detail = std::to_string(config.num_users) + " users, " +
             std::to_string(config.sim_hours) +
             " sim-hours; items are wire messages";
  if (sink != nullptr) r.detail += "; flight recorder attached";
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  dsf::cli::FlagRegistry reg(
      "bench_perf_suite [--quick] [--out PATH] [--trace off|ring]",
      "Hot-path perf suite; emits dsf-perf-suite-v1 JSON.");
  reg.add_bool("quick", false, "~10x smaller budgets, for CI smoke runs")
      .add_string("out", "perf_suite.json", "JSON output path")
      .add_string("trace", "off",
                  "flight recorder on gnutella_day: off | ring")
      .add_int("repeat", 1, "best-of-N per benchmark, damps runner noise");
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

  const bool quick = reg.get_bool("quick");
  const std::string out_path = reg.get_string("out");
  const std::string trace_mode = reg.get_string("trace");
  const int repeat = static_cast<int>(reg.get_int("repeat"));
  if (trace_mode != "off" && trace_mode != "ring") {
    std::fprintf(stderr, "error: --trace: expected off or ring\n");
    return 2;
  }
  if (repeat < 1) {
    std::fprintf(stderr, "error: --repeat: must be >= 1\n");
    return 2;
  }

  // The ring outlives every repetition; the point is steady-state
  // recording cost, not allocation.
  dsf::obs::RingSink ring;
  dsf::obs::TraceSink* sink = nullptr;
  if (trace_mode == "ring") sink = &ring;

  const std::uint64_t ops = quick ? 200'000 : 2'000'000;
  std::vector<Result> results;
  results.push_back(best_of(repeat, [&] { return run_queue_ops(1024, ops); }));
  results.push_back(
      best_of(repeat, [&] { return run_queue_ops(16384, ops); }));
  results.push_back(best_of(
      repeat, [&] { return run_queue_ops(262144, quick ? 200'000 : 1'000'000); }));
  results.push_back(
      best_of(repeat, [&] { return run_queue_batch(16, ops / 16); }));
  results.push_back(
      best_of(repeat, [&] { return run_flood_fanout(quick ? 2'000 : 20'000); }));
  results.push_back(
      best_of(repeat, [&] { return run_gnutella_day(quick, sink); }));

  for (const Result& r : results)
    std::printf("%-18s %12llu items  %8.3f s  %14.0f items/s\n",
                r.name.c_str(), static_cast<unsigned long long>(r.items),
                r.wall_s, r.items_per_s);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  using dsf::metrics::JsonValue;
  JsonValue rows = JsonValue::array();
  for (const Result& r : results) {
    JsonValue row = JsonValue::object();
    row.set("name", JsonValue::string(r.name))
        .set("items", JsonValue::number(r.items))
        .set("wall_s", JsonValue::number(r.wall_s))
        .set("items_per_s", JsonValue::number(r.items_per_s))
        .set("detail", JsonValue::string(r.detail));
    rows.push(std::move(row));
  }
  JsonValue doc = JsonValue::object();
  doc.set("schema", JsonValue::string("dsf-perf-suite-v1"))
      .set("quick", JsonValue::boolean(quick))
      .set("trace", JsonValue::string(trace_mode))
      .set("repeat", JsonValue::number(std::int64_t{repeat}))
      .set("peak_rss_bytes", JsonValue::number(dsf::obs::peak_rss_bytes()));
  if (trace_mode == "ring")
    doc.set("trace_records", JsonValue::number(ring.total()));
  doc.set("results", std::move(rows));
  doc.write(out);
  out << '\n';
  if (!out) {
    std::fprintf(stderr, "write to %s failed\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
