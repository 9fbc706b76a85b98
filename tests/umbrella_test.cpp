// Compile-level test: the umbrella header is self-contained and the whole
// public API coexists in one translation unit.

#include "dsf.h"

#include <gtest/gtest.h>

namespace {

TEST(Umbrella, EveryModuleUsableFromOneHeader) {
  dsf::des::Rng rng(1);
  dsf::des::Simulator sim([](const dsf::des::Event&) {});
  dsf::net::MessageStats traffic;
  dsf::core::StatsStore stats;
  stats.add(1, 2.0);
  dsf::core::NeighborTable overlay(4, dsf::core::RelationKind::kSymmetric, 2,
                                   2);
  EXPECT_TRUE(overlay.link(0, 1));
  EXPECT_TRUE(overlay.consistent());

  dsf::workload::Catalog catalog;
  EXPECT_EQ(catalog.num_songs(), 200'000u);

  dsf::metrics::Summary s;
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.mean(), 1.0);

  dsf::gnutella::Config config;
  EXPECT_TRUE(config.dynamic);
  EXPECT_FALSE(config.as_static().dynamic);
}

}  // namespace
