#include "des/distributions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>

namespace dsf::des {
namespace {

TEST(Exponential, RejectsNonPositiveMean) {
  EXPECT_THROW(Exponential(0.0), std::invalid_argument);
  EXPECT_THROW(Exponential(-1.0), std::invalid_argument);
}

TEST(Exponential, SamplesAreNonNegative) {
  Rng rng(1);
  Exponential e(5.0);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(e.sample(rng), 0.0);
}

TEST(Exponential, EmpiricalMeanMatches) {
  Rng rng(2);
  Exponential e(3.0 * 3600.0);  // the paper's 3-hour session mean
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += e.sample(rng);
  EXPECT_NEAR(sum / n / 3600.0, 3.0, 0.05);
}

TEST(Exponential, MemorylessTailFraction) {
  // P(X > mean) should be e^-1.
  Rng rng(3);
  Exponential e(10.0);
  int over = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) over += e.sample(rng) > 10.0;
  EXPECT_NEAR(static_cast<double>(over) / n, std::exp(-1.0), 0.01);
}

TEST(TruncatedGaussian, RejectsBadParams) {
  EXPECT_THROW(TruncatedGaussian(0, 0, -1, 1), std::invalid_argument);
  EXPECT_THROW(TruncatedGaussian(0, 1, 2, 1), std::invalid_argument);
  // No candidate from a NaN mean or an infinite sigma ever lands in the
  // window, so sample() would never return.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(TruncatedGaussian(nan, 1, -1, 1), std::invalid_argument);
  EXPECT_THROW(TruncatedGaussian(0, inf, -1, 1), std::invalid_argument);
  EXPECT_THROW(TruncatedGaussian(inf, 1, -inf, inf), std::invalid_argument);
  EXPECT_THROW(TruncatedGaussian(0, nan, -1, 1), std::invalid_argument);
  // An unbounded window is a plain Gaussian.
  Rng rng(3);
  EXPECT_TRUE(std::isfinite(TruncatedGaussian(0, 1, -inf, inf).sample(rng)));
}

TEST(TruncatedGaussian, RespectsBounds) {
  Rng rng(4);
  TruncatedGaussian g(200.0, 50.0, 10.0, 400.0);  // library-size settings
  for (int i = 0; i < 20000; ++i) {
    const double x = g.sample(rng);
    EXPECT_GE(x, 10.0);
    EXPECT_LE(x, 400.0);
  }
}

TEST(TruncatedGaussian, EmpiricalMoments) {
  Rng rng(5);
  TruncatedGaussian g(200.0, 50.0, 10.0, 400.0);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = g.sample(rng);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double stddev = std::sqrt(sq / n - mean * mean);
  // Truncation at ±~4σ barely perturbs the moments.
  EXPECT_NEAR(mean, 200.0, 1.0);
  EXPECT_NEAR(stddev, 50.0, 1.0);
}

TEST(TruncatedGaussian, DelaySettingsStayInWindow) {
  Rng rng(6);
  TruncatedGaussian g(0.300, 0.020, 0.010, 0.600);  // modem-path delays
  for (int i = 0; i < 20000; ++i) {
    const double x = g.sample(rng);
    EXPECT_GE(x, 0.010);
    EXPECT_LE(x, 0.600);
  }
}

TEST(Zipf, RejectsBadParams) {
  EXPECT_THROW(Zipf(0, 0.9), std::invalid_argument);
  EXPECT_THROW(Zipf(10, -0.1), std::invalid_argument);
}

TEST(Zipf, PmfSumsToOne) {
  Zipf z(1000, 0.9);
  double sum = 0.0;
  for (std::size_t k = 0; k < 1000; ++k) sum += z.pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, PmfIsMonotoneDecreasing) {
  Zipf z(500, 0.9);
  for (std::size_t k = 1; k < 500; ++k) EXPECT_LE(z.pmf(k), z.pmf(k - 1));
}

TEST(Zipf, PmfMatchesClosedForm) {
  const std::size_t n = 100;
  const double theta = 0.9;
  Zipf z(n, theta);
  double h = 0.0;
  for (std::size_t k = 1; k <= n; ++k)
    h += 1.0 / std::pow(static_cast<double>(k), theta);
  for (std::size_t k = 0; k < n; k += 7)
    EXPECT_NEAR(z.pmf(k),
                1.0 / std::pow(static_cast<double>(k + 1), theta) / h, 1e-12);
}

TEST(Zipf, SampleFrequenciesTrackPmf) {
  Rng rng(7);
  Zipf z(50, 0.9);  // user→category assignment settings
  std::vector<int> counts(50, 0);
  const int n = 500000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(rng)];
  for (std::size_t k = 0; k < 50; k += 5) {
    const double expected = z.pmf(k) * n;
    EXPECT_NEAR(counts[k], expected, 5.0 * std::sqrt(expected) + 10.0);
  }
}

TEST(Zipf, ThetaZeroIsUniform) {
  Zipf z(10, 0.0);
  for (std::size_t k = 0; k < 10; ++k) EXPECT_NEAR(z.pmf(k), 0.1, 1e-12);
}

TEST(AliasTable, RejectsBadWeights) {
  EXPECT_THROW(AliasTable({}), std::invalid_argument);
  EXPECT_THROW(AliasTable({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(AliasTable({1.0, -0.5}), std::invalid_argument);
}

TEST(AliasTable, MatchesWeights) {
  Rng rng(8);
  AliasTable t({1.0, 2.0, 3.0, 4.0});
  std::vector<int> counts(4, 0);
  const int n = 400000;
  for (int i = 0; i < n; ++i) ++counts[t.sample(rng)];
  for (int k = 0; k < 4; ++k) {
    const double expected = (k + 1) / 10.0 * n;
    EXPECT_NEAR(counts[k], expected, 0.02 * n);
  }
}

TEST(AliasTable, ZeroWeightNeverSampled) {
  Rng rng(9);
  AliasTable t({0.0, 1.0, 0.0});
  for (int i = 0; i < 10000; ++i) EXPECT_EQ(t.sample(rng), 1u);
}

TEST(AliasTable, AgreesWithZipfPmf) {
  const std::size_t n = 4000;  // songs per category in the paper
  Zipf z(n, 0.9);
  std::vector<double> w(n);
  for (std::size_t k = 0; k < n; ++k) w[k] = z.pmf(k);
  AliasTable t(w);
  Rng rng(10);
  std::vector<int> counts(n, 0);
  const int draws = 400000;
  for (int i = 0; i < draws; ++i) ++counts[t.sample(rng)];
  // Spot-check the head of the distribution where counts are large.
  for (std::size_t k = 0; k < 5; ++k) {
    const double expected = z.pmf(k) * draws;
    EXPECT_NEAR(counts[k], expected, 5.0 * std::sqrt(expected) + 10.0);
  }
}

TEST(SampleWithoutReplacement, ProducesDistinctValues) {
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    auto v = sample_without_replacement(50, 5, rng);
    std::set<std::size_t> s(v.begin(), v.end());
    EXPECT_EQ(s.size(), 5u);
    for (auto x : v) EXPECT_LT(x, 50u);
  }
}

TEST(SampleWithoutReplacement, FullRangeIsPermutation) {
  Rng rng(12);
  auto v = sample_without_replacement(10, 10, rng);
  std::sort(v.begin(), v.end());
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(v[i], i);
}

TEST(SampleWithoutReplacement, RejectsKGreaterThanN) {
  Rng rng(13);
  EXPECT_THROW(sample_without_replacement(3, 4, rng), std::invalid_argument);
}

TEST(SampleWithoutReplacement, IsUnbiased) {
  Rng rng(14);
  std::vector<int> counts(10, 0);
  const int trials = 100000;
  for (int t = 0; t < trials; ++t)
    for (auto x : sample_without_replacement(10, 3, rng)) ++counts[x];
  for (int c : counts) EXPECT_NEAR(c, trials * 3 / 10, trials * 0.01);
}

}  // namespace
}  // namespace dsf::des
