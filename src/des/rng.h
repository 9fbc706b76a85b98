#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace dsf::des {

namespace detail {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace detail

/// Deterministic, splittable pseudo-random number generator.
///
/// The generator is xoshiro256** seeded through SplitMix64, which gives
/// high-quality 64-bit output, a tiny state, and cheap independent streams:
/// every simulation entity (workload generator, session model, delay model,
/// per-node tie breaking) derives its own stream via `split()`, so adding or
/// reordering consumers never perturbs the random sequence seen by the
/// others.  This is what makes the experiment harness reproducible run to
/// run and insensitive to refactoring.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Next raw 64-bit value.
  std::uint64_t next() noexcept {
    const std::uint64_t result = detail::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = detail::rotl(s_[3], 45);
    return result;
  }

  /// UniformRandomBitGenerator interface so `Rng` plugs into <random>.
  std::uint64_t operator()() noexcept { return next(); }
  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Uniform double in [0, 1).  Uses the top 53 bits.
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n).  `n` must be > 0.  Uses Lemire rejection to
  /// avoid modulo bias.
  std::uint64_t uniform_int(std::uint64_t n) noexcept {
    // Lemire's nearly-divisionless method.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < n) {
      const std::uint64_t threshold = -n % n;
      while (l < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * n;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniform_int(span));
  }

  /// Bernoulli trial with success probability `p`.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Derives an independent child stream.  The child's state is a hash of
  /// this generator's next outputs, so parent and child sequences do not
  /// overlap in practice.
  Rng split() noexcept;

  /// The full 256-bit state, for checkpointing.  Restoring the returned
  /// words with set_state() resumes the stream at exactly this position.
  std::array<std::uint64_t, 4> state() const noexcept {
    return {s_[0], s_[1], s_[2], s_[3]};
  }
  void set_state(const std::array<std::uint64_t, 4>& s) noexcept {
    s_[0] = s[0];
    s_[1] = s[1];
    s_[2] = s[2];
    s_[3] = s[3];
  }

 private:
  std::uint64_t s_[4];
};

/// SplitMix64 step — used for seeding and hashing small integers into
/// well-distributed 64-bit values (e.g. building per-entity seeds).
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Convenience: hash a (seed, stream) pair into one 64-bit seed.
std::uint64_t hash_seed(std::uint64_t seed, std::uint64_t stream) noexcept;

}  // namespace dsf::des
