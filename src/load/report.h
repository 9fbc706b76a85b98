#pragma once

// The one serialization of an open-loop run's LoadStats: it backs every
// point of bench_load_sweep's dsf-load-sweep-v1 document, dsf_sim's
// `load` object and the byte-identity determinism test
// (OpenLoop.SameSeedSameScheduleIsByteIdenticalReport: two same-seed runs
// must serialize identically).

#include "load/open_loop.h"
#include "metrics/json.h"

namespace dsf::load {

/// Appends the stats of one run as members of the JSON object `out`:
/// counters, conservation-relevant totals, rejection rate, goodput and
/// hit rate (post-warmup completions and hits / measured seconds),
/// p50/p95/p99/mean/max sojourn in milliseconds, and queue-depth
/// summary.  `measure_s` is the post-warmup window length; pass 0 to skip
/// the rate fields.
void write_load_stats(metrics::JsonValue& out, const LoadStats& s,
                      double measure_s);

}  // namespace dsf::load
