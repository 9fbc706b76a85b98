#include "obs/process_stats.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dsf::obs {
namespace {

TEST(ProcessStats, PeakRssCoversATouchedAllocation) {
  // Write one byte per page so every page of the block is resident at
  // once; the high-water mark read afterwards must include all of them.
  constexpr std::size_t kBytes = std::size_t{64} << 20;
  constexpr std::size_t kPage = 4096;
  std::vector<unsigned char> block(kBytes);
  for (std::size_t i = 0; i < kBytes; i += kPage)
    block[i] = static_cast<unsigned char>(i / kPage);
  const std::uint64_t peak = peak_rss_bytes();
  EXPECT_GE(peak, kBytes) << "peak RSS " << (peak >> 20) << " MiB";
  EXPECT_EQ(block[kBytes - kPage],
            static_cast<unsigned char>(kBytes / kPage - 1));
}

}  // namespace
}  // namespace dsf::obs
