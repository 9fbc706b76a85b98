#pragma once

#include <cmath>
#include <cstddef>
#include <numbers>
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
  /// Throws std::invalid_argument unless the mean is finite, σ is finite
  /// and positive, and lo < hi: with a NaN mean or an infinite σ no
  /// candidate ever lands in the window and sample() would never return.
  TruncatedGaussian(double mean, double stddev, double lo, double hi);

  double mean() const noexcept { return mean_; }
  double stddev() const noexcept { return stddev_; }
  double lo() const noexcept { return lo_; }
  double hi() const noexcept { return hi_; }

  double sample(Rng& rng) const noexcept {
    // Box–Muller with rejection.  The truncation windows used in this
    // project cover several standard deviations around the mean, so
    // rejection is rare and the expected cost is ~1 normal draw per sample.
    for (;;) {
      const double u1 = 1.0 - rng.uniform();  // (0, 1]
      const double u2 = rng.uniform();
      double x = 0.0;
      if (accept(u1, u2, x)) return x;
    }
  }

  /// Advances `rng` exactly as sample() would, for a draw whose value
  /// nothing reads.  A pair with u1 above sure_accept_u1_ has a radius
  /// below the window's half-width, so sample() would accept its first
  /// candidate; only the other pairs pay for log, sqrt and cos.
  void skip(Rng& rng) const noexcept {
    for (;;) {
      const double u1 = 1.0 - rng.uniform();
      const double u2 = rng.uniform();
      if (u1 > sure_accept_u1_) return;
      double x = 0.0;
      if (accept(u1, u2, x)) return;
    }
  }

 private:
  /// Box–Muller on one uniform pair: sets `x` to the first of its two
  /// candidates that lands in the window (the sine only when the cosine's
  /// misses) and says whether one did.
  bool accept(double u1, double u2, double& x) const noexcept {
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    x = mean_ + stddev_ * (r * std::cos(theta));
    if (x >= lo_ && x <= hi_) return true;
    x = mean_ + stddev_ * (r * sine(theta));
    return x >= lo_ && x <= hi_;
  }
  /// std::sin, out of line so that the compiler cannot fuse it with the
  /// cosine above into one sincos that computes the sine for every pair.
  static double sine(double theta) noexcept;

  double mean_;
  double stddev_;
  double lo_;
  double hi_;
  /// exp(−z²/2) for z the distance from the mean to the nearer bound in
  /// σ units, less a margin far above the rounding of the Box–Muller
  /// arithmetic; 1.0 (never exceeded) when the window does not hold the
  /// mean strictly inside.
  double sure_accept_u1_;
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
