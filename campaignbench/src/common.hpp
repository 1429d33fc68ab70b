// Clocks and resource counters of the benchmark process.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>

#include <sys/resource.h>

namespace campaignbench {

/// steady_clock (CLOCK_MONOTONIC on Linux) in ns — the clock run.py reads
/// with time.monotonic_ns() just before it starts this process.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of this process plus every child it reaped.
inline double cpu_seconds() {
  double total = 0.0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    total += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  }
  return total;
}

/// Peak resident set of this process in MB: VmHWM, which starts afresh at
/// exec. (RUSAGE_SELF's ru_maxrss would also count the launching Python
/// process, whose peak survives the exec.)
inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  double kb = 0.0;
  while (status >> key) {
    if (key == "VmHWM:") {
      status >> kb;
      break;
    }
    status.ignore(4096, '\n');
  }
  return kb / 1024.0;
}

/// Peak resident set in MB of the largest reaped child. A fork()ed worker
/// starts from the coordinator's resident pages, which this includes.
inline double child_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace campaignbench
