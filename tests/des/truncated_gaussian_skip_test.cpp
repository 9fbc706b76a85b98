// TruncatedGaussian::skip against sample(), draw for draw.  skip() must
// leave the generator exactly where sample() leaves it, or every later
// draw on the lane moves.  Each window runs 10^6 draws from twin
// generators and compares the full state after every call: the three
// delay classes (the LAN window takes the full Box–Muller path on ~1% of
// draws, cable and modem almost never), a window narrower than one sigma
// (heavy rejection, with both the sure-accept and the full path live), a
// window that excludes the mean and one whose lower bound is the mean
// (both of which disable the sure-accept bound).

#include "des/distributions.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "des/rng.h"
#include "net/bandwidth.h"
#include "net/delay_model.h"

namespace dsf::des {
namespace {

constexpr int kDraws = 1'000'000;

void expect_skip_matches_sample(const TruncatedGaussian& g,
                                std::uint64_t seed) {
  Rng sampled(seed);
  Rng skipped(seed);
  for (int i = 0; i < kDraws; ++i) {
    (void)g.sample(sampled);
    g.skip(skipped);
    ASSERT_EQ(sampled.state(), skipped.state()) << "draw " << i;
  }
}

TEST(TruncatedGaussianSkip, DelayClassesMatchSample) {
  const net::DelayModelParams params;
  for (int c = 0; c < net::kNumBandwidthClasses; ++c) {
    SCOPED_TRACE(c);
    const double mean =
        net::mean_one_way_delay_s(static_cast<net::BandwidthClass>(c));
    expect_skip_matches_sample(
        TruncatedGaussian(mean, params.stddev_s, params.floor_s,
                          mean * params.ceil_mean_multiple),
        0x5C1Bu + static_cast<std::uint64_t>(c));
  }
}

TEST(TruncatedGaussianSkip, NarrowWindowMatchesSample) {
  expect_skip_matches_sample(TruncatedGaussian(0.0, 1.0, -0.4, 0.4), 0x5C2A);
}

TEST(TruncatedGaussianSkip, WindowExcludingTheMeanMatchesSample) {
  expect_skip_matches_sample(TruncatedGaussian(0.0, 1.0, 1.0, 3.0), 0x5C3B);
}

TEST(TruncatedGaussianSkip, LowerBoundAtTheMeanMatchesSample) {
  expect_skip_matches_sample(TruncatedGaussian(0.15, 0.02, 0.15, 0.30),
                             0x5C4C);
}

}  // namespace
}  // namespace dsf::des
