// The three workloads. Each names the batch job its four batch entry
// points time and the job mix its closed-loop service episodes draw from;
// README.md says why each exists and what it should move.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "jobs.hpp"

namespace perfbench {

enum class Kind { kWc, kHg };

struct JobClass {
  std::string name;
  Kind kind = Kind::kWc;
  std::size_t bytes = 0;
  std::size_t per_block = 1;  // occurrences per block of the job sequence
};

struct WorkloadSpec {
  std::string name;
  JobClass batch;              // timed through ramr/fused/atomic/stream
  std::vector<JobClass> mix;   // closed-loop service job classes (none:
                               // the workload is not served)
  // Timed calls per round, indexed by Entry (ramr, fused, atomic,
  // stream); every call lasts at least ~50 ms on the inputs below.
  std::size_t calls[4] = {1, 1, 1, 1};
  std::size_t episode_jobs = 0;  // service jobs per round
  std::size_t clients = 0;       // closed-loop client threads
  std::size_t min_latency = 20;  // latency samples before a run may stop

  std::size_t calls_per_round(Entry e) const {
    return calls[static_cast<std::size_t>(e)];
  }
};

inline constexpr std::size_t kMiB = 1024 * 1024;

inline const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = [] {
    constexpr auto kRamr = static_cast<std::size_t>(Entry::kRamr);
    constexpr auto kFused = static_cast<std::size_t>(Entry::kFused);
    constexpr auto kStream = static_cast<std::size_t>(Entry::kStream);
    std::vector<WorkloadSpec> w;

    WorkloadSpec wc;
    wc.name = "wc-zipf";
    wc.batch = {"wc", Kind::kWc, 32 * kMiB, 1};
    wc.calls[kRamr] = 2;
    w.push_back(wc);

    WorkloadSpec hg;
    hg.name = "hist-hotkeys";
    hg.batch = {"hg", Kind::kHg, 32 * kMiB, 1};
    hg.calls[kRamr] = 2;
    hg.calls[kFused] = 3;
    hg.calls[kStream] = 2;
    w.push_back(hg);

    WorkloadSpec mix;
    mix.name = "service-mix";
    mix.batch = {"wc-large", Kind::kWc, 8 * kMiB, 2};
    mix.mix = {{"hg-small", Kind::kHg, 1 * kMiB, 18}, mix.batch};
    for (std::size_t& c : mix.calls) c = 2;
    mix.episode_jobs = 20;
    mix.clients = 2;
    mix.min_latency = 220;
    w.push_back(mix);
    return w;
  }();
  return all;
}

inline const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
