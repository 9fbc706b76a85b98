#include <gtest/gtest.h>

#include <cmath>

#include "des/distributions.h"

namespace dsf::des {
namespace {

TEST(Pareto, RejectsBadParams) {
  EXPECT_THROW(Pareto(0.0, 1.5), std::invalid_argument);
  EXPECT_THROW(Pareto(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(Pareto::from_mean(10.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Pareto::from_mean(-1.0, 2.0), std::invalid_argument);
}

TEST(Pareto, SamplesAboveScale) {
  Rng rng(1);
  Pareto p(2.0, 1.5);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(p.sample(rng), 2.0);
}

TEST(Pareto, MeanFormula) {
  Pareto p(2.0, 3.0);
  EXPECT_DOUBLE_EQ(p.mean(), 3.0);  // 3·2/(3−1)
  Pareto heavy(1.0, 0.9);
  EXPECT_TRUE(std::isinf(heavy.mean()));
}

TEST(Pareto, FromMeanRoundTrips) {
  const Pareto p = Pareto::from_mean(3.0 * 3600.0, 1.5);
  EXPECT_NEAR(p.mean(), 3.0 * 3600.0, 1e-9);
}

TEST(Pareto, EmpiricalMeanConverges) {
  // Shape 2.5 has finite variance, so the sample mean converges usably.
  Rng rng(2);
  const Pareto p = Pareto::from_mean(100.0, 2.5);
  double sum = 0.0;
  const int n = 500000;
  for (int i = 0; i < n; ++i) sum += p.sample(rng);
  EXPECT_NEAR(sum / n, 100.0, 2.0);
}

TEST(Pareto, TailHeavierThanExponential) {
  // At the same mean, Pareto(1.5) produces far more sessions beyond
  // 10× the mean than the exponential does (e^-10 ≈ 4.5e-5).
  Rng rng(3);
  const Pareto p = Pareto::from_mean(1.0, 1.5);
  Exponential e(1.0);
  int pareto_tail = 0, exp_tail = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    pareto_tail += p.sample(rng) > 10.0;
    exp_tail += e.sample(rng) > 10.0;
  }
  EXPECT_GT(pareto_tail, 10 * exp_tail);
}

TEST(Pareto, SurvivalMatchesClosedForm) {
  // P(X > x) = (x_m/x)^alpha.
  Rng rng(4);
  Pareto p(1.0, 2.0);
  int over2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) over2 += p.sample(rng) > 2.0;
  EXPECT_NEAR(static_cast<double>(over2) / n, 0.25, 0.005);
}

}  // namespace
}  // namespace dsf::des
