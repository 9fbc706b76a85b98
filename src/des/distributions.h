#pragma once

#include <cstddef>
#include <vector>

#include "des/rng.h"

namespace dsf::des {

/// Exponential distribution with the given mean (NOT rate).  The paper's
/// session and inter-query times are all specified by their means, so the
/// constructor takes the mean directly to avoid 1/λ mistakes at call sites.
class Exponential {
 public:
  explicit Exponential(double mean);

  double mean() const noexcept { return mean_; }
  double sample(Rng& rng) const noexcept;

 private:
  double mean_;
};

/// Gaussian distribution truncated to [lo, hi] by rejection sampling.
/// Used for library sizes (μ=200, σ=50, truncated to stay positive) and
/// pairwise one-way delays (μ per bandwidth class, σ=20 ms, truncated to
/// [10 ms, 2μ] as documented in DESIGN.md).
class TruncatedGaussian {
 public:
  TruncatedGaussian(double mean, double stddev, double lo, double hi);

  double mean() const noexcept { return mean_; }
  double stddev() const noexcept { return stddev_; }
  double lo() const noexcept { return lo_; }
  double hi() const noexcept { return hi_; }

  double sample(Rng& rng) const noexcept;

 private:
  double mean_;
  double stddev_;
  double lo_;
  double hi_;
};

/// Zipf distribution over ranks 1..n with exponent theta:
///   P(rank = k) ∝ 1 / k^theta.
///
/// Sampling is O(log n) by binary search over the precomputed CDF; the
/// constructor is O(n).  Ranks are returned 0-based (0 = most popular) so
/// they can index arrays directly.
class Zipf {
 public:
  Zipf(std::size_t n, double theta);

  std::size_t size() const noexcept { return cdf_.size(); }
  double theta() const noexcept { return theta_; }

  /// Probability of 0-based rank `k`.
  double pmf(std::size_t k) const;

  /// Samples a 0-based rank.
  std::size_t sample(Rng& rng) const noexcept;

 private:
  double theta_;
  std::vector<double> cdf_;
};

/// Pareto (power-law) distribution with scale x_m and shape alpha:
///   P(X > x) = (x_m / x)^alpha for x >= x_m.
/// Used as the heavy-tailed alternative to exponential session durations
/// (measured P2P session lengths are closer to Pareto than exponential);
/// finite mean requires alpha > 1.
class Pareto {
 public:
  Pareto(double scale, double shape);

  double scale() const noexcept { return scale_; }
  double shape() const noexcept { return shape_; }

  /// Mean = alpha·x_m / (alpha − 1); infinite for alpha <= 1.
  double mean() const noexcept;

  double sample(Rng& rng) const noexcept;

  /// Builds a Pareto with the given mean and shape (solves for the scale).
  static Pareto from_mean(double mean, double shape);

 private:
  double scale_;
  double shape_;
};

/// Weighted discrete distribution with O(1) sampling (Vose alias method).
/// Used where the same categorical distribution is sampled millions of
/// times (e.g. drawing songs from a category's popularity profile).
class AliasTable {
 public:
  /// Builds from unnormalized non-negative weights; at least one weight
  /// must be positive.
  explicit AliasTable(const std::vector<double>& weights);

  std::size_t size() const noexcept { return prob_.size(); }
  std::size_t sample(Rng& rng) const noexcept;

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
};

/// Returns `k` distinct values sampled uniformly from [0, n) without
/// replacement (Floyd's algorithm, O(k) expected).  Result is unsorted.
std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                    std::size_t k, Rng& rng);

}  // namespace dsf::des
