#include "obs/process_stats.h"

#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace dsf::obs {

std::uint64_t peak_rss_bytes() noexcept {
  // VmHWM is this image's own high-water mark.  getrusage's ru_maxrss is
  // only the fallback: Linux carries it across exec, so a process started
  // by a large parent would report the parent's peak.
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, status) != nullptr)
      found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
    std::fclose(status);
    if (found) return static_cast<std::uint64_t>(kib) * 1024u;
  }
#if defined(__unix__) || defined(__APPLE__)
  rusage u{};
  if (getrusage(RUSAGE_SELF, &u) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(u.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(u.ru_maxrss) * 1024u;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace dsf::obs
