#include "metrics/replication.h"

#include <gtest/gtest.h>

#include "des/distributions.h"
#include "des/rng.h"

namespace dsf::metrics {
namespace {

TEST(ConfidenceInterval, EmptySample) {
  const auto ci = confidence_interval({});
  EXPECT_EQ(ci.n, 0u);
  EXPECT_DOUBLE_EQ(ci.mean, 0.0);
  EXPECT_DOUBLE_EQ(ci.half_width, 0.0);
}

TEST(ConfidenceInterval, SingleValueHasZeroWidth) {
  const auto ci = confidence_interval({5.0});
  EXPECT_DOUBLE_EQ(ci.mean, 5.0);
  EXPECT_DOUBLE_EQ(ci.half_width, 0.0);
}

TEST(ConfidenceInterval, KnownSample) {
  // {2, 4, 6}: mean 4, s = 2, hw = 1.96·2/√3.
  const auto ci = confidence_interval({2.0, 4.0, 6.0});
  EXPECT_DOUBLE_EQ(ci.mean, 4.0);
  EXPECT_NEAR(ci.half_width, 1.96 * 2.0 / std::sqrt(3.0), 1e-12);
  EXPECT_TRUE(ci.contains(4.0));
  EXPECT_TRUE(ci.excludes_zero());
}

TEST(ConfidenceInterval, IntervalAroundZeroDoesNotExcludeIt) {
  const auto ci = confidence_interval({-1.0, 1.0, 0.5, -0.5});
  EXPECT_FALSE(ci.excludes_zero());
}

TEST(ConfidenceInterval, CoverageOnGaussianData) {
  // ~95% of CIs built from N(10, 2) samples should contain 10.
  des::Rng rng(3);
  des::TruncatedGaussian g(10.0, 2.0, 0.0, 20.0);
  int covered = 0;
  const int trials = 500;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> sample;
    for (int i = 0; i < 30; ++i) sample.push_back(g.sample(rng));
    if (confidence_interval(sample).contains(10.0)) ++covered;
  }
  EXPECT_NEAR(static_cast<double>(covered) / trials, 0.95, 0.04);
}

}  // namespace
}  // namespace dsf::metrics
