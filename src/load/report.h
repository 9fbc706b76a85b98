#pragma once

// Shared serialization of one open-loop run's LoadStats: the same field
// set backs every point of bench_load_sweep's dsf-load-sweep-v1 document
// and the byte-identity determinism test
// (OpenLoop.SameSeedSameScheduleIsByteIdenticalReport: two same-seed runs
// must serialize identically).  dsf_sim's `load` object is built
// separately and carries a subset of these fields.

#include "load/open_loop.h"
#include "metrics/json_emitter.h"

namespace dsf::load {

/// Writes the stats of one run as members of the currently open JSON
/// object: counters, conservation-relevant totals, rejection rate,
/// goodput (post-warmup completions / measured seconds), p50/p95/p99
/// sojourn in milliseconds, and queue-depth summary.  `measure_s` is the
/// post-warmup window length; pass 0 to skip the rate fields.
void write_load_stats(metrics::JsonEmitter& j, const LoadStats& s,
                      double measure_s);

}  // namespace dsf::load
