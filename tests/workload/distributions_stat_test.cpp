// Statistical acceptance tests for the workload samplers, pinning the
// distributions the scale sweep stresses at n = 1e6 draws.
//
// Seeds are fixed, so each statistic is a deterministic number and the
// assertions never flake; the bounds are still the principled ones — the
// alpha = 0.001 critical values of the chi-square and Kolmogorov–Smirnov
// tests — so a regression that deforms a sampler (broken CDF inversion,
// clipped tail, biased binary search) fails loudly rather than drifting
// under a hand-tuned tolerance.

#include "des/distributions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "des/rng.h"

namespace dsf::des {
namespace {

constexpr std::size_t kDraws = 1'000'000;

// --- Kolmogorov–Smirnov, continuous samplers ---------------------------

/// One-sample KS statistic of `samples` (sorted in place) against `cdf`.
double ks_statistic(std::vector<double>& samples,
                    const std::function<double(double)>& cdf) {
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  double d = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double f = cdf(samples[i]);
    d = std::max(d, f - static_cast<double>(i) / n);
    d = std::max(d, static_cast<double>(i + 1) / n - f);
  }
  return d;
}

/// KS critical value at alpha = 0.001: sqrt(-ln(alpha/2)/2) / sqrt(n).
double ks_bound(std::size_t n) {
  return std::sqrt(-std::log(0.0005) / 2.0) /
         std::sqrt(static_cast<double>(n));
}

double normal_cdf(double z) { return 0.5 * (1.0 + std::erf(z / std::sqrt(2.0))); }

TEST(DistributionsStat, ExponentialPassesKS) {
  const double mean = 600.0;  // the paper's session-scale magnitude
  Exponential dist(mean);
  Rng rng(0xE4B0);
  std::vector<double> samples(kDraws);
  for (auto& s : samples) s = dist.sample(rng);
  const double d = ks_statistic(
      samples, [mean](double x) { return 1.0 - std::exp(-x / mean); });
  EXPECT_LT(d, ks_bound(kDraws)) << "KS statistic " << d;
}

TEST(DistributionsStat, ParetoPassesKS) {
  Pareto dist = Pareto::from_mean(3600.0, 1.5);
  const double xm = dist.scale(), a = dist.shape();
  Rng rng(0x9A7E70);
  std::vector<double> samples(kDraws);
  for (auto& s : samples) s = dist.sample(rng);
  const double d = ks_statistic(samples, [xm, a](double x) {
    return x < xm ? 0.0 : 1.0 - std::pow(xm / x, a);
  });
  EXPECT_LT(d, ks_bound(kDraws)) << "KS statistic " << d;
}

TEST(DistributionsStat, TruncatedGaussianPassesKS) {
  // The library-size parameterization (mu 200, sigma 50, truncated to
  // [10, 400]); the truncation must renormalize, not clip.
  const double mu = 200.0, sigma = 50.0, lo = 10.0, hi = 400.0;
  TruncatedGaussian dist(mu, sigma, lo, hi);
  Rng rng(0x76A055);
  std::vector<double> samples(kDraws);
  for (auto& s : samples) s = dist.sample(rng);
  const double f_lo = normal_cdf((lo - mu) / sigma);
  const double f_hi = normal_cdf((hi - mu) / sigma);
  const double d = ks_statistic(samples, [=](double x) {
    return (normal_cdf((x - mu) / sigma) - f_lo) / (f_hi - f_lo);
  });
  EXPECT_LT(d, ks_bound(kDraws)) << "KS statistic " << d;
  for (double s : samples) {
    ASSERT_GE(s, lo);
    ASSERT_LE(s, hi);
  }
}

// --- Chi-square, discrete sampler --------------------------------------

// Wilson–Hilferty approximation of the chi-square critical value at
// alpha = 0.001 (z = 3.0902) — accurate to a fraction of a percent for
// the dozens-to-hundreds of degrees of freedom used here.
double chi2_bound(std::size_t df) {
  const double k = static_cast<double>(df);
  const double z = 3.0902;
  const double t = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
  return k * t * t * t;
}

TEST(DistributionsStat, ZipfPassesChiSquare) {
  // The catalog's popularity profile: Zipf(0.9) over 4000 ranks.
  const std::size_t ranks = 4000;
  Zipf dist(ranks, 0.9);
  Rng rng(0x21BF09);
  std::vector<std::uint64_t> observed(ranks, 0);
  for (std::size_t i = 0; i < kDraws; ++i) ++observed[dist.sample(rng)];

  // Merge trailing ranks into bins with expected count >= 10 so the
  // chi-square approximation holds in the thin tail.
  double chi2 = 0.0;
  std::size_t bins = 0;
  double exp_acc = 0.0, obs_acc = 0.0;
  for (std::size_t k = 0; k < ranks; ++k) {
    exp_acc += dist.pmf(k) * static_cast<double>(kDraws);
    obs_acc += static_cast<double>(observed[k]);
    if (exp_acc >= 10.0) {
      const double diff = obs_acc - exp_acc;
      chi2 += diff * diff / exp_acc;
      ++bins;
      exp_acc = obs_acc = 0.0;
    }
  }
  if (exp_acc > 0.0) {
    const double diff = obs_acc - exp_acc;
    chi2 += diff * diff / exp_acc;
    ++bins;
  }
  ASSERT_GE(bins, 30u);  // the binning must not collapse the test away
  EXPECT_LT(chi2, chi2_bound(bins - 1))
      << "chi2 " << chi2 << " over " << bins << " bins";
}

TEST(DistributionsStat, ParetoSessionTailPassesChiSquare) {
  // SessionModel's heavy-tailed sessions (DurationKind::kPareto, shape
  // 1.5 — the heavy session tail), here at mean 600 s: chi-square over 100
  // equal-probability bins, so the statistic weighs the far tail as
  // heavily as the body.  Catches a clipped or re-scaled tail that the
  // KS statistic (dominated by the body) can miss.
  Pareto dist = Pareto::from_mean(600.0, 1.5);
  const double xm = dist.scale(), a = dist.shape();
  Rng rng(0xAD5E7A);

  const std::size_t bins = 100;
  // Bin edges at the quantiles: F^-1(p) = xm / (1-p)^(1/a); the last
  // edge is +inf.
  std::vector<double> edges(bins);
  for (std::size_t b = 0; b + 1 < bins; ++b) {
    const double p = static_cast<double>(b + 1) / static_cast<double>(bins);
    edges[b] = xm / std::pow(1.0 - p, 1.0 / a);
  }
  edges[bins - 1] = std::numeric_limits<double>::infinity();

  std::vector<std::uint64_t> observed(bins, 0);
  for (std::size_t i = 0; i < kDraws; ++i) {
    const double s = dist.sample(rng);
    ASSERT_GE(s, xm) << "Pareto support starts at the scale";
    const auto it = std::lower_bound(edges.begin(), edges.end(), s);
    ++observed[static_cast<std::size_t>(it - edges.begin())];
  }

  const double expected = static_cast<double>(kDraws) / bins;
  double chi2 = 0.0;
  for (std::uint64_t o : observed) {
    const double diff = static_cast<double>(o) - expected;
    chi2 += diff * diff / expected;
  }
  EXPECT_LT(chi2, chi2_bound(bins - 1))
      << "chi2 " << chi2 << " over " << bins << " equal-probability bins";
}

TEST(DistributionsStat, ParetoStormScaleMatchesConfiguredMean) {
  // from_mean must invert the mean formula xm * a / (a - 1) exactly, and
  // the empirical mean of a million heavy-tailed draws should land within
  // a few percent of it (shape 1.5 has infinite variance, so the sample
  // mean converges slowly — the bound is deliberately loose but would
  // still catch a scale derived from the wrong formula by 3x).
  const double mean = 600.0, shape = 1.5;
  Pareto dist = Pareto::from_mean(mean, shape);
  EXPECT_DOUBLE_EQ(dist.scale() * shape / (shape - 1.0), mean);

  Rng rng(0x570F11);
  double acc = 0.0;
  for (std::size_t i = 0; i < kDraws; ++i) acc += dist.sample(rng);
  const double sample_mean = acc / static_cast<double>(kDraws);
  EXPECT_GT(sample_mean, 0.5 * mean);
  EXPECT_LT(sample_mean, 2.0 * mean);
}

TEST(DistributionsStat, ZipfRankOneIsModal) {
  // Cheap structural cross-check on the same draw budget: observed
  // frequency ordering must follow the pmf for the head ranks.
  Zipf dist(100, 0.9);
  Rng rng(0x5EED);
  std::vector<std::uint64_t> observed(100, 0);
  for (std::size_t i = 0; i < kDraws; ++i) ++observed[dist.sample(rng)];
  EXPECT_GT(observed[0], observed[1]);
  EXPECT_GT(observed[1], observed[5]);
  EXPECT_GT(observed[5], observed[50]);
}

}  // namespace
}  // namespace dsf::des
