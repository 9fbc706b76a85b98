// The figure benches print and dump the hours [floor(warmup), floor(hours)):
// pinned at the paper's horizon, the DSF_FAST quarter scale and a horizon
// under one hour, where the range is empty and every loop over it ends.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "../../bench/fig_common.h"

namespace dsf::bench {
namespace {

/// paper_config(2) with DSF_FAST set to `fast` for the call.
gnutella::Config config_with_fast(const char* fast) {
  const char* saved = std::getenv("DSF_FAST");
  const std::string restore = saved ? saved : "";
  if (fast)
    setenv("DSF_FAST", fast, 1);
  else
    unsetenv("DSF_FAST");
  gnutella::Config c = paper_config(2);
  if (saved)
    setenv("DSF_FAST", restore.c_str(), 1);
  else
    unsetenv("DSF_FAST");
  return c;
}

TEST(FigureHours, PaperHorizonCoversHours12To95) {
  const gnutella::Config c = config_with_fast(nullptr);
  const HourRange range = figure_hour_range(c);
  EXPECT_EQ(range.first, 12u);
  EXPECT_EQ(range.end, 96u);  // the last hour printed is 95
  EXPECT_EQ(figure_hours(c),
            (std::vector<std::size_t>{12, 28, 44, 60, 76, 92}));
}

TEST(FigureHours, FastModeCoversHours6To23) {
  const HourRange range = figure_hour_range(config_with_fast("1"));
  EXPECT_EQ(range.first, 6u);
  EXPECT_EQ(range.end, 24u);
}

TEST(FigureHours, HorizonUnderOneHourIsEmpty) {
  gnutella::Config c = config_with_fast(nullptr);
  c.sim_hours = 0.5;
  c.warmup_hours = 0.25;
  EXPECT_TRUE(figure_hour_range(c).empty());
  EXPECT_TRUE(figure_hours(c).empty());
}

}  // namespace
}  // namespace dsf::bench
