// Host probes: process CPU time, peak RSS, /proc/stat steal, load average,
// and the refusal to run under RAMR_* overrides.
#pragma once

#include <sys/resource.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

extern char** environ;

namespace perfbench {

// User + system CPU seconds of the whole process (all threads).
inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Aggregate "cpu" line of /proc/stat: total jiffies and steal jiffies.
struct CpuJiffies {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  bool valid = false;
};

inline CpuJiffies read_cpu_jiffies() {
  CpuJiffies j;
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return j;
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal (guest time is already
  // included in user/nice, so it is not added again).
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && (fields >> v); ++i) {
    j.total += v;
    if (i == 7) {
      j.steal = v;
      j.valid = true;
    }
  }
  return j;
}

inline double steal_fraction(const CpuJiffies& a, const CpuJiffies& b) {
  if (!a.valid || !b.valid || b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

inline double load_average_1m() {
  std::ifstream in("/proc/loadavg");
  double load = 0.0;
  in >> load;
  return load;
}

// Names of every RAMR_* variable in the environment.
inline std::vector<std::string> ramr_env_overrides() {
  std::vector<std::string> found;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string kv(*e);
    if (kv.rfind("RAMR_", 0) == 0) found.push_back(kv.substr(0, kv.find('=')));
  }
  return found;
}

}  // namespace perfbench
