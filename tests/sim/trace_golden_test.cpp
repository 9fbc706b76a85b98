// Flight-recorder zero-perturbation regression: attaching a trace sink
// must leave every scenario's metrics byte-identical to the untraced
// baseline.  This is stronger than "tracing off is free": the recorder
// rides the same traced transmit path as the fault layer but never draws
// from any RNG lane, so even a fully armed RingSink cannot move a single
// counter.  The heartbeat arm additionally proves that pulses come from
// the horizon loop, not the event queue: the run executes exactly the
// baseline's events.
//
// Full golden configurations (same as determinism_test.cpp), so this file
// lives in the slow suite.
#include <gtest/gtest.h>

#include "obs/ring_sink.h"
#include "sim_fingerprints.h"

namespace dsf {
namespace {

using simtest::fingerprint;

template <typename Sim, typename Config>
void expect_tracing_is_noop(const Config& config) {
  Sim baseline_sim(config);
  const auto baseline = fingerprint(baseline_sim.run());

  // A live ring records the run without moving any metric.
  obs::RingSink ring;
  Sim traced_sim(config);
  traced_sim.set_trace_sink(&ring);
  EXPECT_EQ(traced_sim.trace_sink(), &ring);
  const auto traced = fingerprint(traced_sim.run());
  EXPECT_EQ(baseline.value(), traced.value()) << "RingSink perturbed the run";
  EXPECT_GT(ring.total(), 0u) << "sink attached but nothing was recorded";

  // Heartbeat pulses schedule nothing and count no events.
  obs::RingSink beat_ring;
  Sim beat_sim(config);
  beat_sim.set_trace_sink(&beat_ring);
  beat_sim.set_heartbeat_period(300.0);
  const auto beat = fingerprint(beat_sim.run());
  EXPECT_EQ(baseline.value(), beat.value()) << "heartbeat perturbed the run";
  EXPECT_EQ(baseline_sim.simulator().executed(),
            beat_sim.simulator().executed());
  std::size_t pulses = 0;
  for (const obs::Record& r : beat_ring.snapshot())
    if (r.kind == obs::RecordKind::kHeartbeat) ++pulses;
  EXPECT_GT(pulses, 0u) << "heartbeat armed but no pulse was recorded";
}

TEST(TraceGolden, GnutellaTracedRunMatchesBaseline) {
  expect_tracing_is_noop<gnutella::Simulation>(
      simtest::golden_gnutella_config());
}

TEST(TraceGolden, DigLibTracedRunMatchesBaseline) {
  expect_tracing_is_noop<diglib::DigLibSim>(simtest::golden_diglib_config());
}

TEST(TraceGolden, OlapTracedRunMatchesBaseline) {
  expect_tracing_is_noop<olap::OlapSim>(simtest::golden_olap_config());
}

TEST(TraceGolden, WebCacheTracedRunMatchesBaseline) {
  expect_tracing_is_noop<webcache::WebCacheSim>(
      simtest::golden_webcache_config());
}

}  // namespace
}  // namespace dsf
