#pragma once

// Process-level stats for heartbeat records and bench reports.

#include <cstdint>

namespace dsf::obs {

/// Peak resident set of this process image in bytes: VmHWM from
/// /proc/self/status, else getrusage's ru_maxrss, else 0.
std::uint64_t peak_rss_bytes() noexcept;

}  // namespace dsf::obs
