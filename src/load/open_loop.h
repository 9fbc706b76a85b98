#pragma once

// Open-loop front-end types: the options block handed to
// OverlayEngine::set_open_loop, the per-peer admission queue, and the
// accounting every open-loop run reports (latency percentiles, goodput,
// rejection rate, queue-depth series).
//
// Determinism contract: the whole layer rides a dedicated RNG lane
// (derived via des::hash_seed from the scenario seed, like the fault
// lane), and a disabled layer schedules zero events and draws nothing —
// closed-loop runs stay byte-identical with the layer compiled in.

#include <cstdint>
#include <deque>
#include <vector>

#include "load/schedule.h"
#include "load/trace_reader.h"
#include "metrics/time_series.h"

namespace dsf::load {

/// Configuration for one open-loop run.  When `trace` is non-empty it
/// replaces the built-in generator (the schedule is then ignored).
struct OpenLoopOptions {
  bool enabled = false;
  ArrivalSchedule schedule;
  std::vector<TraceArrival> trace;
  /// Per-peer admission bound: waiting queries plus the one in service.
  /// Arrivals past the cap are rejected (shed), never queued.
  std::size_t admission_cap = 8;
  /// Queue-depth sampling period for the depth series (seconds).
  double queue_sample_period_s = 60.0;
};

/// What a scenario's serve_injected_query override reports back: the
/// service latency of one injected query and whether it found anything.
struct Served {
  double latency_s = 0.0;
  bool hit = false;
};

/// One admitted-but-unfinished injected query.
struct PendingQuery {
  double arrival_s = 0.0;
  std::uint64_t item = kAnyItem;
};

/// Per-peer single-server bounded FIFO.  depth() is what the admission
/// cap bounds.
struct PeerQueue {
  std::deque<PendingQuery> waiting;
  bool busy = false;
  /// The query in service while busy: its arrival time and hit verdict,
  /// read when its service finishes.
  double service_arrival_s = 0.0;
  bool service_hit = false;
  std::size_t depth() const noexcept {
    return waiting.size() + (busy ? 1u : 0u);
  }
};

/// Everything an open-loop run measures.  Counters cover the whole run;
/// latency quality metrics (sojourn summary + histogram) record only
/// post-warmup completions.  Conservation (certified by
/// InvariantChecker::check_admission): offered == admitted + rejected and
/// admitted == completed + shed + pending.
struct LoadStats {
  std::uint64_t offered = 0;    ///< arrivals presented to admission
  std::uint64_t admitted = 0;   ///< accepted into a peer queue
  std::uint64_t rejected = 0;   ///< refused at admission (cap or dead peer)
  std::uint64_t completed = 0;  ///< service finished (hit or miss)
  std::uint64_t shed = 0;       ///< admitted, then dropped (peer crashed)
  std::uint64_t pending = 0;    ///< still queued/in service at end of run
  std::uint64_t hits = 0;       ///< completions that found a result

  /// Post-warmup completions/hits, the goodput numerator.
  std::uint64_t completed_after_warmup = 0;
  std::uint64_t hits_after_warmup = 0;

  /// End-to-end sojourn (admission -> completion: queue wait + service),
  /// post-warmup only.  The histogram feeds p50/p95/p99.
  metrics::Summary sojourn_s;
  metrics::Histogram sojourn_hist{0.0, 60.0, 6000};

  /// Aggregate queue depth sampled every queue_sample_period_s.
  metrics::Summary queue_depth;
  std::uint64_t peak_queue_depth = 0;

  /// Arrival/rejection counts bucketed per minute of simulated time.
  metrics::TimeSeries offered_series{60.0};
  metrics::TimeSeries rejected_series{60.0};
};

}  // namespace dsf::load
