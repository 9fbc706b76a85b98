#include "sim/adversary.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace dsf::sim {

namespace {

// Dedicated stream salt for the adversary lane.  Distinct from the fault
// lane (0xfa171a7e'0000'0002) and the load lane (0x6c6f'6164'00000000) so
// the three layers never share randomness.
constexpr std::uint64_t kAdversaryStream = 0xad5e7a11'00000001ULL;

void check_fraction(double v, const char* name) {
  if (!(v >= 0.0 && v <= 1.0))
    throw std::invalid_argument(std::string("adversary: ") + name +
                                " must be in [0, 1], got " +
                                std::to_string(v));
}

void check_rate(double v, const char* name) {
  if (!(v >= 0.0) || !std::isfinite(v))
    throw std::invalid_argument(std::string("adversary: ") + name +
                                " must be finite and >= 0, got " +
                                std::to_string(v));
}

void check_window(double start_s, double end_s, const char* name) {
  if (!(start_s >= 0.0) || std::isnan(end_s) || end_s < start_s)
    throw std::invalid_argument(std::string("adversary: ") + name +
                                " window is inverted or negative [" +
                                std::to_string(start_s) + ", " +
                                std::to_string(end_s) + ")");
}

}  // namespace

void AdversaryPlan::validate() const {
  check_fraction(abuser_fraction, "abuser fraction");
  check_rate(abuse_rate_per_s, "abuse rate");
  check_window(abuse_start_s, abuse_end_s, "abuse");
  if (abusers_enabled() && abuser_fraction >= 1.0)
    throw std::invalid_argument(
        "adversary: abuser fraction must leave at least one good peer");
}

des::Rng make_adversary_lane(std::uint64_t seed) {
  return des::Rng(des::hash_seed(seed, kAdversaryStream));
}

}  // namespace dsf::sim
