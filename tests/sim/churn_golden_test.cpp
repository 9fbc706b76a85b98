// Golden pin for the gnutella path that supersedes a user's pending
// session and query records on a crash: the victim's records must never
// run, so it stays off-line for good.  A superseded record still pops; if
// it ran, a crashed user would log back in and the fingerprint would
// move.  The value was captured before the queue lost cancellation, when
// these records were cancelled instead.
//
// Also: the three post-warm-up totals count exactly the reporting window
// when the horizon or the warm-up is not a whole hour.
#include <gtest/gtest.h>

#include <cstdint>

#include "sim_fingerprints.h"

namespace dsf {
namespace {

using simtest::fingerprint;

constexpr std::uint64_t kCrashModelGolden = 0xe0fb31a1cff4d980ULL;

/// The golden gnutella configuration cut to two whole hours, so the
/// totals read the same hour buckets as the hourly series.
gnutella::Config two_hour_config() {
  auto c = simtest::golden_gnutella_config();
  c.sim_hours = 2.0;
  c.warmup_hours = 1.0;
  return c;
}

TEST(GnutellaChurnGolden, CrashModelAtFourPerHour) {
  sim::CrashModel crashes;
  crashes.rate_per_hour = 4.0;
  gnutella::Simulation sim(two_hour_config());
  sim.set_crash_model(crashes);
  const auto r = sim.run();
  EXPECT_GT(sim.crashes(), 0u);
  EXPECT_EQ(fingerprint(r).value(), kCrashModelGolden);
}

/// Runs the golden population with the given horizon and warm-up and
/// checks the totals against the post-warm-up query counters.
void expect_totals_in_reporting_window(double hours, double warmup) {
  auto c = simtest::golden_gnutella_config();
  c.sim_hours = hours;
  c.warmup_hours = warmup;
  const auto r = gnutella::Simulation(c).run();
  EXPECT_GT(r.total_hits(), 0u);
  EXPECT_LE(r.total_hits(), r.queries_issued);
  EXPECT_EQ(r.total_hits(), r.hits_favorite + r.hits_side);
  EXPECT_GE(r.total_results(), r.total_hits());
  EXPECT_GT(r.total_messages(), 0u);
}

TEST(GnutellaTotals, FractionalHorizonCountsTheReportingWindow) {
  expect_totals_in_reporting_window(1.5, 1.0);
}

TEST(GnutellaTotals, FractionalWarmupCountsTheReportingWindow) {
  expect_totals_in_reporting_window(1.0, 0.5);
}

}  // namespace
}  // namespace dsf
