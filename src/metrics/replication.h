#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "metrics/time_series.h"

namespace dsf::metrics {

/// Mean and normal-approximation confidence half-width of a sample of
/// replica measurements (simulation outputs across seeds).
struct ConfidenceInterval {
  double mean = 0.0;
  double half_width = 0.0;  ///< z * s / sqrt(n)
  std::size_t n = 0;

  double lo() const noexcept { return mean - half_width; }
  double hi() const noexcept { return mean + half_width; }

  /// True if `value` lies inside the interval.
  bool contains(double value) const noexcept {
    return value >= lo() && value <= hi();
  }

  /// True if the interval excludes zero — the usual "is the effect real"
  /// check for a difference or a relative gain.
  bool excludes_zero() const noexcept { return lo() > 0.0 || hi() < 0.0; }
};

/// Computes the CI of a sample at the given z (1.96 ≈ 95% under the
/// normal approximation; replica counts here are small, so treat the
/// interval as indicative rather than exact).
ConfidenceInterval confidence_interval(const std::vector<double>& sample,
                                       double z = 1.96);

}  // namespace dsf::metrics
