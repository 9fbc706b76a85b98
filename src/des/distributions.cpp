#include "des/distributions.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_set>

namespace dsf::des {

Exponential::Exponential(double mean) : mean_(mean) {
  if (!(mean > 0.0)) throw std::invalid_argument("Exponential: mean must be > 0");
}

double Exponential::sample(Rng& rng) const noexcept {
  // -mean * ln(1 - U); 1-U avoids log(0) since uniform() < 1.
  return -mean_ * std::log1p(-rng.uniform());
}

TruncatedGaussian::TruncatedGaussian(double mean, double stddev, double lo,
                                     double hi)
    : mean_(mean), stddev_(stddev), lo_(lo), hi_(hi) {
  if (!(stddev > 0.0))
    throw std::invalid_argument("TruncatedGaussian: stddev must be > 0");
  if (!(lo < hi))
    throw std::invalid_argument("TruncatedGaussian: lo must be < hi");
}

double TruncatedGaussian::sample(Rng& rng) const noexcept {
  // Box–Muller with rejection.  The truncation windows used in this project
  // cover several standard deviations around the mean, so rejection is rare
  // and the expected cost is ~1 normal draw per sample.
  for (;;) {
    const double u1 = 1.0 - rng.uniform();  // (0, 1]
    const double u2 = rng.uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double z0 = r * std::cos(2.0 * M_PI * u2);
    const double z1 = r * std::sin(2.0 * M_PI * u2);
    const double x0 = mean_ + stddev_ * z0;
    if (x0 >= lo_ && x0 <= hi_) return x0;
    const double x1 = mean_ + stddev_ * z1;
    if (x1 >= lo_ && x1 <= hi_) return x1;
  }
}

Zipf::Zipf(std::size_t n, double theta) : theta_(theta) {
  if (n == 0) throw std::invalid_argument("Zipf: n must be > 0");
  if (theta < 0.0) throw std::invalid_argument("Zipf: theta must be >= 0");
  cdf_.resize(n);
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), theta);
    cdf_[k] = sum;
  }
  for (auto& c : cdf_) c /= sum;
  cdf_.back() = 1.0;  // guard against accumulated rounding
}

double Zipf::pmf(std::size_t k) const {
  if (k >= cdf_.size()) throw std::out_of_range("Zipf::pmf: rank out of range");
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

std::size_t Zipf::sample(Rng& rng) const noexcept {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin());
}

Pareto::Pareto(double scale, double shape) : scale_(scale), shape_(shape) {
  if (!(scale > 0.0)) throw std::invalid_argument("Pareto: scale must be > 0");
  if (!(shape > 0.0)) throw std::invalid_argument("Pareto: shape must be > 0");
}

double Pareto::mean() const noexcept {
  if (shape_ <= 1.0) return std::numeric_limits<double>::infinity();
  return shape_ * scale_ / (shape_ - 1.0);
}

double Pareto::sample(Rng& rng) const noexcept {
  // Inverse CDF: x = x_m / U^(1/alpha); 1-U avoids U == 0.
  return scale_ / std::pow(1.0 - rng.uniform(), 1.0 / shape_);
}

Pareto Pareto::from_mean(double mean, double shape) {
  if (!(shape > 1.0))
    throw std::invalid_argument("Pareto::from_mean: shape must be > 1");
  if (!(mean > 0.0))
    throw std::invalid_argument("Pareto::from_mean: mean must be > 0");
  return Pareto(mean * (shape - 1.0) / shape, shape);
}

AliasTable::AliasTable(const std::vector<double>& weights) {
  const std::size_t n = weights.size();
  if (n == 0) throw std::invalid_argument("AliasTable: empty weights");
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("AliasTable: negative weight");
    total += w;
  }
  if (!(total > 0.0))
    throw std::invalid_argument("AliasTable: all weights are zero");

  prob_.resize(n);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i)
    scaled[i] = weights[i] * static_cast<double>(n) / total;

  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));

  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (std::uint32_t i : large) prob_[i] = 1.0;
  for (std::uint32_t i : small) prob_[i] = 1.0;  // numerical leftovers
}

std::size_t AliasTable::sample(Rng& rng) const noexcept {
  const std::size_t i = rng.uniform_int(prob_.size());
  return rng.uniform() < prob_[i] ? i : alias_[i];
}

std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                    std::size_t k, Rng& rng) {
  if (k > n)
    throw std::invalid_argument("sample_without_replacement: k > n");
  // Floyd's algorithm: O(k) expected inserts.
  std::unordered_set<std::size_t> chosen;
  chosen.reserve(k * 2);
  std::vector<std::size_t> result;
  result.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    const std::size_t t = rng.uniform_int(j + 1);
    if (chosen.insert(t).second) {
      result.push_back(t);
    } else {
      chosen.insert(j);
      result.push_back(j);
    }
  }
  return result;
}

}  // namespace dsf::des
