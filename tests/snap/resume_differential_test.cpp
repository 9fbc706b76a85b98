// The resume-equals-straight-through battery (DESIGN.md §1.9's contract):
// for every simulator, running to sim-second T, writing a snapshot,
// loading it into a freshly constructed simulation and running to the
// horizon must produce metric fingerprints byte-identical to the
// uninterrupted run — and the save itself must not perturb the saving
// run's trajectory.  Saving at the same T twice must produce identical
// file bytes (the format sorts every unordered container at write time).
//
// Variants cover every event kind and domain container: gnutella's
// trial-period invitations and recurring probes, the summary-gated policy
// with growing libraries (recent-query rings + spill lists), the crash
// process (dead set + pending crash tick, and the tick a run resumed
// without the crash model must not run), webcache's Squid hierarchy
// (parents keep only digest rebuilds pending) and the LRU/Bloom/StatsStore
// codecs in olap/webcache/diglib.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "../sim/sim_fingerprints.h"
#include "obs/ring_sink.h"
#include "sim/fault.h"
#include "sim/invariants.h"

namespace dsf {
namespace {

using simtest::fingerprint;

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Straight-through vs save-run vs resumed-run fingerprints and executed
/// event counts, plus save-twice byte identity.  `arm` configures each simulation identically
/// (fault plans, crash models) before anything runs.
template <typename Sim, typename Config, typename Arm>
void expect_resume_equals_straight(const Config& cfg, double save_at_s,
                                   const std::string& tag, Arm arm) {
  const std::string path = ::testing::TempDir() + "dsf_" + tag + ".snap";
  const std::string path2 = path + ".again";

  std::uint64_t straight_fp = 0;
  std::uint64_t straight_events = 0;
  {
    Sim straight(cfg);
    arm(straight);
    straight_fp = fingerprint(straight.run()).value();
    straight_events = straight.simulator().executed();
  }
  {
    Sim saver(cfg);
    arm(saver);
    saver.request_snapshot_save(path, save_at_s);
    EXPECT_EQ(straight_fp, fingerprint(saver.run()).value())
        << tag << ": the save perturbed the saving run";
  }
  {
    Sim resumer(cfg);
    arm(resumer);
    resumer.load_snapshot(path);
    EXPECT_TRUE(resumer.resumed());
    EXPECT_EQ(straight_fp, fingerprint(resumer.run()).value())
        << tag << ": resumed trajectory diverged";
    EXPECT_EQ(straight_events, resumer.simulator().executed())
        << tag << ": the resumed run executed another number of events";
  }
  {
    Sim saver(cfg);
    arm(saver);
    saver.request_snapshot_save(path2, save_at_s);
    saver.run();
  }
  EXPECT_EQ(slurp(path), slurp(path2))
      << tag << ": saving at the same T twice produced different bytes";
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

template <typename Sim, typename Config>
void expect_resume_equals_straight(const Config& cfg, double save_at_s,
                                   const std::string& tag) {
  expect_resume_equals_straight<Sim>(cfg, save_at_s, tag, [](Sim&) {});
}

// Small configs keep the battery inside the fast tier; they are derived
// from the golden fingerprint configs so the workloads stay representative.
gnutella::Config small_gnutella() {
  gnutella::Config c = simtest::golden_gnutella_config();
  c.num_users = 120;
  c.sim_hours = 2.0;
  c.warmup_hours = 0.5;
  return c;
}

olap::OlapConfig small_olap() {
  olap::OlapConfig c = simtest::golden_olap_config();
  c.sim_hours = 0.5;
  c.warmup_hours = 0.1;
  return c;
}

TEST(ResumeDifferential, Gnutella) {
  expect_resume_equals_straight<gnutella::Simulation>(small_gnutella(), 3600.0,
                                                      "gnutella");
}

TEST(ResumeDifferential, GnutellaTrialPeriodAndProbes) {
  // Exercises the trial events (pending cross-user evaluations at T) and
  // the recurring probe / ProbeSample restore.
  gnutella::Config c = small_gnutella();
  c.invitation_policy = core::InvitationPolicy::kTrialPeriod;
  c.probe_period_s = 600.0;
  expect_resume_equals_straight<gnutella::Simulation>(c, 3600.0,
                                                      "gnutella_trial");
}

TEST(ResumeDifferential, GnutellaSummaryGatedWithLibraryGrowth) {
  // Exercises the recent-query rings (summary-gated invitations) and the
  // library-pool spill lists (downloads at T must survive the resume).
  gnutella::Config c = small_gnutella();
  c.invitation_policy = core::InvitationPolicy::kSummaryGated;
  c.library_growth = true;
  expect_resume_equals_straight<gnutella::Simulation>(c, 3600.0,
                                                      "gnutella_summary");
}

TEST(ResumeDifferential, GnutellaWithCrashes) {
  // Exercises the crash process: the dead set, the pending crash tick and
  // the fault RNG lane all cross the snapshot.
  gnutella::Config c = small_gnutella();
  sim::CrashModel crashes;
  crashes.rate_per_hour = 6.0;
  expect_resume_equals_straight<gnutella::Simulation>(
      c, 3600.0, "gnutella_crash",
      [&crashes](gnutella::Simulation& sim) { sim.set_crash_model(crashes); });
}

TEST(ResumeDifferential, Olap) {
  expect_resume_equals_straight<olap::OlapSim>(small_olap(), 900.0, "olap");
}

TEST(ResumeDifferential, Webcache) {
  expect_resume_equals_straight<webcache::WebCacheSim>(
      simtest::golden_webcache_config(), 1800.0, "webcache");
}

TEST(ResumeDifferential, WebcacheHierarchy) {
  // Squid-hierarchy mode: parents keep only the digest rebuild pending,
  // so the recurring records differ from the flat mesh's.
  webcache::WebCacheConfig c = simtest::golden_webcache_config();
  c.num_parents = 4;
  expect_resume_equals_straight<webcache::WebCacheSim>(c, 1800.0,
                                                       "webcache_hier");
}

TEST(ResumeDifferential, Diglib) {
  expect_resume_equals_straight<diglib::DigLibSim>(
      simtest::golden_diglib_config(), 900.0, "diglib");
}

TEST(ResumeDifferential, CrashModelArmedOnlyOnResumeStillFires) {
  // The EXPERIMENTS.md warm-start recipe: bootstrap once without faults,
  // then fork a crash scenario from the checkpoint.  The saved run carried
  // no crash tick, so the resumed engine must start the process itself,
  // from the restored clock — and only after the fork point.
  const gnutella::Config cfg = small_gnutella();
  const std::string path = ::testing::TempDir() + "dsf_fork.snap";
  {
    gnutella::Simulation saver(cfg);
    saver.request_snapshot_save(path, 1800.0);
    saver.run();
  }
  gnutella::Simulation fork(cfg);
  sim::CrashModel crashes;
  crashes.rate_per_hour = 30.0;
  fork.set_crash_model(crashes);
  fork.load_snapshot(path);
  fork.run();
  EXPECT_GT(fork.crashes(), 0u)
      << "crash model armed on a resumed run never fired";
  std::remove(path.c_str());
}

TEST(ResumeDifferential, CrashModelDisarmedOnResumeNeverFires) {
  // The mirror of the fork above: a save made with a crash model holds a
  // pending crash tick, and a run resumed without one must not run it.
  // The resumed run's fault flags rule in both directions.
  const gnutella::Config cfg = small_gnutella();
  const std::string path = ::testing::TempDir() + "dsf_disarm.snap";
  std::uint64_t saver_crashes = 0;
  {
    gnutella::Simulation saver(cfg);
    sim::CrashModel crashes;
    crashes.rate_per_hour = 6.0;
    saver.set_crash_model(crashes);
    saver.request_snapshot_save(path, 1800.0);
    saver.run();
    saver_crashes = saver.crashes();
  }
  gnutella::Simulation resumed(cfg);
  resumed.load_snapshot(path);
  const std::uint64_t at_load = resumed.crashes();
  ASSERT_GT(saver_crashes, at_load)
      << "the saving run crashed no peer after the save, so the file holds "
         "no pending crash tick";
  resumed.run();
  EXPECT_EQ(resumed.crashes(), at_load)
      << "a crash tick restored from the save fired in a run resumed "
         "without a crash model";
  std::remove(path.c_str());
}

TEST(ResumeDifferential, CheckerAttachedOnResumeReconcilesTheLedger) {
  // The same recipe under --fault-check: the ledger restored from an
  // unchecked save holds sends no checker saw, so the checker attached
  // to the fork audits the traffic after the resume point.
  const gnutella::Config cfg = small_gnutella();
  const std::string path = ::testing::TempDir() + "dsf_checked_fork.snap";
  {
    gnutella::Simulation saver(cfg);
    saver.request_snapshot_save(path, 1800.0);
    saver.run();
  }
  gnutella::Simulation fork(cfg);
  sim::CrashModel crashes;
  crashes.rate_per_hour = 30.0;
  fork.set_crash_model(crashes);
  fork.load_snapshot(path);
  sim::InvariantChecker checker;
  fork.attach_checker(&checker);
  fork.run();
  checker.check_overlay(fork.overlay());
  checker.check_ledger(fork.ledger());
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(checker.events_seen(), 0u);
  EXPECT_GT(fork.crashes(), 0u);
  std::remove(path.c_str());
}

TEST(ResumeDifferential, EventsExecutedContinuesAcrossResume) {
  // The lifetime event counter is part of the engine core section, so a
  // resumed run reports the same total as the uninterrupted one.
  const gnutella::Config cfg = small_gnutella();
  const std::string path = ::testing::TempDir() + "dsf_events.snap";
  const auto straight = gnutella::Simulation(cfg).run();
  {
    gnutella::Simulation saver(cfg);
    saver.request_snapshot_save(path, 3600.0);
    saver.run();
  }
  gnutella::Simulation resumer(cfg);
  resumer.load_snapshot(path);
  EXPECT_EQ(straight.events_executed, resumer.run().events_executed);
  std::remove(path.c_str());
}

/// Keeps the heartbeat pulse times and drops every other record.
class PulseSink final : public obs::TraceSink {
 public:
  void record(const obs::Record& r) noexcept override {
    if (r.kind == obs::RecordKind::kHeartbeat) times.push_back(r.time_s);
  }
  std::vector<double> times;
};

TEST(ResumeDifferential, HeartbeatNeverEntersTheSnapshot) {
  // Heartbeat pulses come from the horizon loop, not the event queue: a
  // save made with a ring and a heartbeat writes the bytes a ring-only
  // save writes, and resumes with or without either to the straight run.
  const gnutella::Config cfg = small_gnutella();
  const std::string path = ::testing::TempDir() + "dsf_heartbeat.snap";
  const std::string ring_path = path + ".ring";
  const auto straight = gnutella::Simulation(cfg).run();
  const std::uint64_t straight_fp = fingerprint(straight).value();
  for (const double period_s : {600.0, 0.0}) {
    obs::RingSink ring;
    gnutella::Simulation saver(cfg);
    saver.set_trace_sink(&ring);
    saver.set_heartbeat_period(period_s);
    saver.request_snapshot_save(period_s > 0.0 ? path : ring_path, 3600.0);
    EXPECT_EQ(straight_fp, fingerprint(saver.run()).value());
  }
  EXPECT_EQ(slurp(path), slurp(ring_path));
  {
    gnutella::Simulation resumer(cfg);
    resumer.load_snapshot(path);
    const auto resumed = resumer.run();
    EXPECT_EQ(straight_fp, fingerprint(resumed).value());
    EXPECT_EQ(straight.events_executed, resumed.events_executed);
  }
  PulseSink pulses;
  gnutella::Simulation resumer(cfg);
  resumer.set_trace_sink(&pulses);
  resumer.set_heartbeat_period(600.0);
  resumer.load_snapshot(path);
  const auto resumed = resumer.run();
  EXPECT_EQ(straight_fp, fingerprint(resumed).value());
  EXPECT_EQ(straight.events_executed, resumed.events_executed);
  // The resumed run pulses on the multiples of the period after its
  // restored clock, up to and including the horizon.
  EXPECT_EQ(pulses.times,
            (std::vector<double>{4200.0, 4800.0, 5400.0, 6000.0, 6600.0,
                                 7200.0}));
  std::remove(path.c_str());
  std::remove(ring_path.c_str());
}

TEST(ResumeDifferential, MisuseIsRejected) {
  const olap::OlapConfig cfg = small_olap();
  const std::string path = ::testing::TempDir() + "dsf_misuse.snap";
  {
    olap::OlapSim saver(cfg);
    saver.request_snapshot_save(path, 60.0);
    saver.run();
  }
  {
    // The save point must lie inside the run.
    olap::OlapSim sim(cfg);
    EXPECT_THROW(sim.request_snapshot_save(path, 0.0), std::invalid_argument);
    EXPECT_THROW(sim.request_snapshot_save(path, -5.0), std::invalid_argument);
  }
  {
    // Resuming twice (or into a used simulation) is rejected: restore
    // targets must be freshly constructed.
    olap::OlapSim sim(cfg);
    sim.load_snapshot(path);
    EXPECT_THROW(sim.load_snapshot(path), std::logic_error);
  }
  {
    olap::OlapSim sim(cfg);
    sim.run();
    EXPECT_THROW(sim.load_snapshot(path), std::logic_error);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dsf
