// Scale-sweep driver: one Gnutella population per invocation, replicated
// over seeds with des::parallel_map_reduce and merged deterministically
// (per-shard Welford summaries, histograms and time series fold in input
// order — the merged metrics are byte-identical for any --threads value).
//
// scripts/run_scale_sweep.sh runs this at 10k / 100k / 1M peers — one
// process per population so peak RSS is attributable — and assembles the
// per-run JSON documents into one dsf-scale-suite-v1 file that CI
// archives next to the perf suite.  BENCH_PR4.json at the repo root pins
// the numbers this tree produced when the compact scale path landed.
//
// Usage: bench_scale_sweep --peers N [--hours H] [--replications R]
//                          [--seed S] [--threads T] [--out PATH]
//                          [--save-snapshot PATH@T] [--load-snapshot PATH]
//
// --threads parallelizes across replications (independent seeds); each
// run itself is one serial event loop.
//
// The snapshot flags checkpoint/resume a single run (they require
// --replications 1): bootstrap a large population once with
// --save-snapshot, then fork as many what-if continuations as needed from
// the file with --load-snapshot — each resumed run is byte-identical to
// the uninterrupted one.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "cli/flag_registry.h"
#include "des/sweep.h"
#include "gnutella/config.h"
#include "gnutella/simulation.h"
#include "metrics/json.h"
#include "metrics/time_series.h"
#include "net/message.h"
#include "obs/process_stats.h"
#include "snap/snapshot.h"

namespace {

using Clock = std::chrono::steady_clock;

/// What one replication contributes to the merged metrics.
struct Shard {
  dsf::metrics::Summary delay;
  dsf::metrics::Histogram delay_hist{0.0, 5.0, 500};
  dsf::metrics::TimeSeries hits{3600.0};
  dsf::metrics::TimeSeries messages{3600.0};
  dsf::net::MessageStats traffic;
  std::uint64_t queries = 0;
  std::uint64_t satisfied = 0;
  std::uint64_t reconfigurations = 0;
  std::uint64_t events = 0;
  std::uint64_t overlay_bytes = 0;  ///< compact table footprint (max)
  std::uint64_t library_bytes = 0;  ///< library pool footprint (max)
  double wall_s = 0.0;
};

void merge(Shard& acc, Shard& s) {
  acc.delay += s.delay;
  acc.delay_hist += s.delay_hist;
  acc.hits += s.hits;
  acc.messages += s.messages;
  acc.traffic += s.traffic;
  acc.queries += s.queries;
  acc.satisfied += s.satisfied;
  acc.reconfigurations += s.reconfigurations;
  acc.events += s.events;
  acc.overlay_bytes = std::max(acc.overlay_bytes, s.overlay_bytes);
  acc.library_bytes = std::max(acc.library_bytes, s.library_bytes);
  acc.wall_s += s.wall_s;  // summed CPU-side wall; suite reports real wall too
}

struct Options {
  std::size_t peers = 0;
  double hours = 24.0;
  unsigned replications = 1;
  std::uint64_t seed = 42;
  unsigned threads = dsf::des::kAutoThreads;  // one per replication, capped
  std::string out_path = "scale_run.json";
  std::string snapshot_save_path;  // empty: no checkpoint
  double snapshot_save_at_s = 0.0;
  std::string snapshot_load_path;  // empty: fresh run
};

Shard run_one(const Options& opt, std::uint64_t seed) {
  dsf::gnutella::Config config;
  config.num_users = static_cast<std::uint32_t>(opt.peers);
  config.sim_hours = opt.hours;
  config.warmup_hours = opt.hours > 2.0 ? 1.0 : 0.0;
  config.seed = seed;
  const auto t0 = Clock::now();
  dsf::gnutella::Simulation sim(config);
  if (!opt.snapshot_load_path.empty())
    sim.load_snapshot(opt.snapshot_load_path);
  if (!opt.snapshot_save_path.empty())
    sim.request_snapshot_save(opt.snapshot_save_path, opt.snapshot_save_at_s);
  const auto result = sim.run();
  Shard s;
  s.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  s.delay = result.first_result_delay_s;
  s.delay_hist = result.first_result_delay_hist;
  s.hits = result.hits;
  s.messages = result.messages;
  s.traffic = result.traffic;
  s.queries = result.queries_issued;
  s.satisfied = result.total_hits();
  s.reconfigurations = result.reconfigurations;
  s.events = result.events_executed;
  s.overlay_bytes = sim.overlay().memory_bytes();
  s.library_bytes = sim.libraries().memory_bytes();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  dsf::cli::FlagRegistry reg(
      "bench_scale_sweep --peers N [--hours H] [--replications R] "
      "[--seed S] [--threads T] [--out PATH]",
      "One Gnutella population per invocation; emits dsf-scale-run-v1 JSON.");
  reg.add_int("peers", 0, "population size (required)")
      .add_double("hours", 24.0, "simulated hours per replication")
      .add_int("replications", 1, "independent seeds to merge")
      .add_int("seed", 42, "base seed; replication i uses seed+i")
      .add_int("threads", 0, "worker threads (0 = one per replication)")
      .add_string("out", "scale_run.json", "JSON output path")
      .add_string("save-snapshot", "",
                  "checkpoint the run at sim-second T: PATH@T "
                  "(requires --replications 1)")
      .add_string("load-snapshot", "",
                  "resume from a checkpoint written by --save-snapshot "
                  "(same --peers/--hours/--seed required)");
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

  Options opt;
  opt.peers = static_cast<std::size_t>(reg.get_int("peers"));
  opt.hours = reg.get_double("hours");
  opt.replications = static_cast<unsigned>(reg.get_int("replications"));
  opt.seed = static_cast<std::uint64_t>(reg.get_int("seed"));
  // CLI keeps "0 = auto"; parallel_map_reduce itself rejects an explicit 0.
  opt.threads = reg.get_int("threads") == 0
                    ? dsf::des::kAutoThreads
                    : static_cast<unsigned>(reg.get_int("threads"));
  opt.out_path = reg.get_string("out");
  if (opt.peers == 0 || opt.hours <= 0.0 || opt.replications == 0) {
    std::fprintf(stderr, "--peers is required; hours and replications > 0\n");
    return 2;
  }

  opt.snapshot_load_path = reg.get_string("load-snapshot");
  const std::string save = reg.get_string("save-snapshot");
  if (!save.empty()) {
    const std::size_t at = save.rfind('@');
    std::size_t used = 0;
    if (at != std::string::npos && at > 0 && at + 1 < save.size()) {
      const std::string when = save.substr(at + 1);
      try {
        opt.snapshot_save_at_s = std::stod(when, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      if (used != when.size()) used = 0;
    }
    if (used == 0 || !(opt.snapshot_save_at_s > 0.0)) {
      std::fprintf(stderr,
                   "error: --save-snapshot expects PATH@T with T a positive "
                   "sim-second count\n");
      return 2;
    }
    opt.snapshot_save_path = save.substr(0, at);
  }
  if ((!opt.snapshot_save_path.empty() || !opt.snapshot_load_path.empty()) &&
      opt.replications != 1) {
    std::fprintf(stderr,
                 "error: snapshot flags require --replications 1 (one run "
                 "per checkpoint)\n");
    return 2;
  }

  std::vector<std::uint64_t> seeds(opt.replications);
  std::iota(seeds.begin(), seeds.end(), opt.seed);

  const auto t0 = Clock::now();
  Shard total;
  try {
    total = dsf::des::parallel_map_reduce(
        seeds, [&](std::uint64_t seed) { return run_one(opt, seed); }, Shard{},
        merge, opt.threads);
  } catch (const dsf::snap::SnapshotError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 5;
  }
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();

  const std::uint64_t rss = dsf::obs::peak_rss_bytes();
  const double hit_ratio =
      total.queries
          ? static_cast<double>(total.satisfied) / static_cast<double>(total.queries)
          : 0.0;
  const double events_per_s =
      wall > 0.0 ? static_cast<double>(total.events) / wall : 0.0;
  // Peak RSS divides by the peers simultaneously resident: every
  // replication holds its own population while running.
  const std::size_t resident_peers =
      opt.peers * std::min<std::size_t>(opt.replications,
                                        dsf::des::sweep_threads(seeds.size()));

  std::printf("peers=%zu events=%llu (%.0f/s) rss=%.1f MiB (%.0f B/peer) "
              "hit_ratio=%.3f wall=%.1fs\n",
              opt.peers, static_cast<unsigned long long>(total.events),
              events_per_s, static_cast<double>(rss) / (1024.0 * 1024.0),
              static_cast<double>(rss) / static_cast<double>(resident_peers),
              hit_ratio, wall);

  std::ofstream out(opt.out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", opt.out_path.c_str());
    return 1;
  }
  using dsf::metrics::JsonValue;
  JsonValue doc = JsonValue::object();
  doc.set("schema", JsonValue::string("dsf-scale-run-v1"))
      .set("peers", JsonValue::number(static_cast<std::uint64_t>(opt.peers)))
      .set("hours", JsonValue::number(opt.hours))
      .set("replications",
           JsonValue::number(std::uint64_t{opt.replications}))
      .set("seed", JsonValue::number(opt.seed))
      .set("wall_s", JsonValue::number(wall))
      .set("events", JsonValue::number(total.events))
      .set("events_per_s", JsonValue::number(events_per_s))
      .set("peak_rss_bytes", JsonValue::number(rss))
      .set("rss_per_peer",
           JsonValue::number(static_cast<double>(rss) /
                             static_cast<double>(resident_peers)))
      .set("overlay_bytes", JsonValue::number(total.overlay_bytes))
      .set("library_bytes", JsonValue::number(total.library_bytes))
      .set("queries", JsonValue::number(total.queries))
      .set("hits", JsonValue::number(total.satisfied))
      .set("hit_ratio", JsonValue::number(hit_ratio))
      .set("messages", JsonValue::number(total.traffic.total()))
      .set("delay_mean_s", JsonValue::number(total.delay.mean()))
      .set("delay_p50_s", JsonValue::number(total.delay_hist.quantile(0.5)))
      .set("delay_p95_s", JsonValue::number(total.delay_hist.quantile(0.95)))
      .set("reconfigurations", JsonValue::number(total.reconfigurations));
  doc.write(out);
  out << '\n';
  if (!out) {
    std::fprintf(stderr, "write to %s failed\n", opt.out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", opt.out_path.c_str());
  return 0;
}
