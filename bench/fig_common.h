#pragma once

// Shared harness for the figure-reproduction benches.  Every bench prints
// the same series the paper's figure reports (x-axis ticks included) plus a
// CSV dump for external plotting, and honours two environment variables:
//
//   DSF_FAST=1        quarter-scale run (500 users, 24 h) for smoke tests
//   DSF_SEED=<n>      override the workload seed
//
// Absolute numbers depend on the calibrated per-user query rate (the paper
// omits it; see DESIGN.md) — the comparisons static-vs-dynamic and the
// trends across hops/thresholds are the reproduction targets.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "gnutella/config.h"
#include "gnutella/simulation.h"
#include "metrics/csv.h"
#include "metrics/table.h"

namespace dsf::bench {

inline bool fast_mode() {
  const char* v = std::getenv("DSF_FAST");
  return v != nullptr && v[0] != '0';
}

/// The paper's §4.2 configuration (or a quarter-scale variant under
/// DSF_FAST) with the given hop limit.
inline gnutella::Config paper_config(int max_hops) {
  gnutella::Config c;
  c.max_hops = max_hops;
  if (fast_mode()) {
    c.num_users = 500;
    c.catalog.num_songs = 50'000;
    c.sim_hours = 24.0;
    c.warmup_hours = 6.0;
  }
  if (const char* seed = std::getenv("DSF_SEED")) {
    c.seed = static_cast<std::uint64_t>(std::strtoull(seed, nullptr, 10));
  }
  return c;
}

/// The hours the figure tables and CSV cover, as the half-open range
/// [first, end) = [floor(warmup_hours), floor(sim_hours)): from the first
/// reporting hour to the last full hour of the horizon.  Empty when the
/// horizon ends within the warm-up's hour.
struct HourRange {
  std::size_t first = 0;
  std::size_t end = 0;
  bool empty() const noexcept { return first >= end; }
};

inline HourRange figure_hour_range(const gnutella::Config& c) {
  const auto first = static_cast<std::size_t>(c.warmup_hours);
  const auto end = static_cast<std::size_t>(c.sim_hours);
  return {first, std::max(first, end)};
}

/// The hour ticks the paper's Figures 1–2 label (12, 27, ..., 87), scaled
/// into the figure hours.
inline std::vector<std::size_t> figure_hours(const gnutella::Config& c) {
  const HourRange range = figure_hour_range(c);
  std::vector<std::size_t> hours;
  if (range.empty()) return hours;
  const std::size_t step =
      std::max<std::size_t>(1, (range.end - 1 - range.first) / 5);
  for (std::size_t h = range.first; h < range.end; h += step)
    hours.push_back(h);
  return hours;
}

/// Prints the two per-hour series of Figures 1/2 (hits and messages) for a
/// static/dynamic pair and dumps the full hourly series as CSV.
inline void print_hourly_figure(const std::string& name,
                                const gnutella::Config& config,
                                const gnutella::RunResult& sta,
                                const gnutella::RunResult& dyn) {
  std::printf("\n-- %s(a): queries satisfied per hour (hops=%d) --\n",
              name.c_str(), config.max_hops);
  metrics::Table hits({"hour", "Gnutella", "Dynamic_Gnutella"});
  for (std::size_t h : figure_hours(config))
    hits.add_row({std::to_string(h), metrics::fmt_count(sta.hits.bucket(h)),
                  metrics::fmt_count(dyn.hits.bucket(h))});
  hits.print(std::cout);

  std::printf("\n-- %s(b): query messages per hour (hops=%d) --\n",
              name.c_str(), config.max_hops);
  metrics::Table msgs({"hour", "Gnutella", "Dynamic_Gnutella"});
  for (std::size_t h : figure_hours(config))
    msgs.add_row({std::to_string(h),
                  metrics::fmt_count(sta.messages.bucket(h)),
                  metrics::fmt_count(dyn.messages.bucket(h))});
  msgs.print(std::cout);

  const HourRange range = figure_hour_range(config);
  if (range.empty())
    std::printf("\ntotals (no full hour after the warm-up):\n");
  else
    std::printf("\ntotals over hours %zu..%zu:\n", range.first,
                range.end - 1);
  std::printf("  hits:     static %s, dynamic %s (%+.1f%%)\n",
              metrics::fmt_count(sta.total_hits()).c_str(),
              metrics::fmt_count(dyn.total_hits()).c_str(),
              100.0 * (static_cast<double>(dyn.total_hits()) /
                           static_cast<double>(sta.total_hits()) -
                       1.0));
  std::printf("  messages: static %s, dynamic %s (%+.1f%%)\n",
              metrics::fmt_count(sta.total_messages()).c_str(),
              metrics::fmt_count(dyn.total_messages()).c_str(),
              100.0 * (static_cast<double>(dyn.total_messages()) /
                           static_cast<double>(sta.total_messages()) -
                       1.0));

  const std::string csv_path = name + "_series.csv";
  metrics::CsvWriter csv(csv_path, {"hour", "hits_static", "hits_dynamic",
                                    "msgs_static", "msgs_dynamic"});
  for (std::size_t h = range.first; h < range.end; ++h)
    csv.add_row({std::to_string(h), std::to_string(sta.hits.bucket(h)),
                 std::to_string(dyn.hits.bucket(h)),
                 std::to_string(sta.messages.bucket(h)),
                 std::to_string(dyn.messages.bucket(h))});
  std::printf("  full hourly series written to %s\n", csv_path.c_str());
}

}  // namespace dsf::bench
