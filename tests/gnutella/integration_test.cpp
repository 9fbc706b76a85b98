#include <gtest/gtest.h>

#include "gnutella/simulation.h"

namespace dsf::gnutella {
namespace {

/// Medium-scale integration runs: a scaled-down version of the paper's
/// setting (enough users and hours for adaptation to show, small enough to
/// stay fast in CI).  These check the *shape* of the paper's findings.
Config medium_config() {
  Config c;
  c.num_users = 400;
  c.catalog.num_songs = 20000;
  c.catalog.num_categories = 20;
  c.library.mean_size = 100.0;
  c.library.stddev_size = 20.0;
  c.library.min_size = 10.0;
  c.library.max_size = 200.0;
  c.session.mean_interquery_s = 180.0;
  c.max_hops = 2;
  c.sim_hours = 12.0;
  c.warmup_hours = 2.0;
  c.seed = 77;
  return c;
}

class GnutellaIntegration : public ::testing::Test {
 protected:
  static RunResult run_dynamic() {
    static const RunResult r = Simulation(medium_config()).run();
    return r;
  }
  static RunResult run_static() {
    static const RunResult r = Simulation(medium_config().as_static()).run();
    return r;
  }
};

TEST_F(GnutellaIntegration, DynamicProducesMoreHitsThanStatic) {
  // Fig 1(a)'s headline: dynamic reconfiguration satisfies more queries.
  EXPECT_GT(run_dynamic().total_hits(), run_static().total_hits());
}

TEST_F(GnutellaIntegration, DynamicReducesMessageOverhead) {
  // Fig 1(b): content clustering satisfies queries earlier, reducing
  // propagation.
  EXPECT_LT(run_dynamic().total_messages(), run_static().total_messages());
}

TEST_F(GnutellaIntegration, DynamicLowersFirstResultDelay) {
  // Fig 3(a): results come from nearby neighbors after adaptation.
  EXPECT_LT(run_dynamic().first_result_delay_s.mean(),
            run_static().first_result_delay_s.mean());
}

TEST_F(GnutellaIntegration, DynamicImprovesOverTime) {
  // The hit rate of the dynamic scheme should be higher in the second half
  // of the run than in the first (learning), while static stays flat-ish.
  const auto r = run_dynamic();
  const Config c = medium_config();
  const auto first = static_cast<std::size_t>(c.warmup_hours);
  const auto last = static_cast<std::size_t>(c.sim_hours) - 1;
  const std::size_t mid = (first + last) / 2;
  const auto first_half = r.hits.sum(first, mid);
  const auto second_half = r.hits.sum(mid + 1, last);
  // Allow noise: second half must reach at least 95% of the first.
  EXPECT_GT(static_cast<double>(second_half),
            0.95 * static_cast<double>(first_half));
}

TEST_F(GnutellaIntegration, NeighborhoodsClusterByTaste) {
  // After adaptation, a node's neighbors share its favourite category far
  // more often than random assignment (expected share under random pairing
  // is ~the category popularity; we test against the population baseline).
  Config c = medium_config();
  Simulation sim(c);
  sim.prime();
  sim.simulator().run_until(c.sim_hours * 3600.0);

  std::size_t same = 0, pairs = 0;
  std::vector<std::size_t> category_count(c.catalog.num_categories, 0);
  for (net::NodeId u = 0; u < c.num_users; ++u)
    ++category_count[sim.profile(u).favorite];
  double random_baseline = 0.0;  // P(two random users share favourite)
  for (const auto count : category_count) {
    const double share = static_cast<double>(count) / c.num_users;
    random_baseline += share * share;
  }
  for (net::NodeId u = 0; u < c.num_users; ++u) {
    for (net::NodeId v : sim.overlay().lists(u).out()) {
      ++pairs;
      if (sim.profile(u).favorite == sim.profile(v).favorite) ++same;
    }
  }
  ASSERT_GT(pairs, 0u);
  const double observed = static_cast<double>(same) / pairs;
  EXPECT_GT(observed, random_baseline * 1.3)
      << "observed same-category share " << observed << " vs baseline "
      << random_baseline;
}

TEST_F(GnutellaIntegration, ThresholdOneIsWorseThanTwo) {
  // Fig 3(b): T=1 latches onto the first responder and underperforms T=2.
  Config t1 = medium_config();
  t1.reconfig_threshold = 1;
  Config t2 = medium_config();
  t2.reconfig_threshold = 2;
  const auto r1 = Simulation(t1).run();
  const auto r2 = Simulation(t2).run();
  EXPECT_LT(r1.total_hits(), (r2.total_hits() * 11) / 10);
}

TEST_F(GnutellaIntegration, HugeThresholdApproachesStatic) {
  // Fig 3(b)'s right edge: with T enormous, reconfiguration (other than
  // log-off-triggered) never fires and results drift toward static.
  Config t = medium_config();
  t.reconfig_threshold = 100000;
  const auto rt = Simulation(t).run();
  const auto rs = run_static();
  const double ratio = static_cast<double>(rt.total_hits()) /
                       static_cast<double>(rs.total_hits());
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.45);
}

TEST_F(GnutellaIntegration, OverlayStaysConsistentAfterFullRun) {
  Config c = medium_config();
  Simulation sim(c);
  sim.prime();
  sim.simulator().run_until(c.sim_hours * 3600.0);
  EXPECT_TRUE(sim.overlay().consistent());
}

}  // namespace
}  // namespace dsf::gnutella
