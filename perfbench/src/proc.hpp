// Process-level readings: resident memory, CPU time, scheduler run-queue
// delay, and the host fingerprint recorded with every result.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// Current resident set size in bytes (/proc/self/statm).
std::uint64_t rss_bytes();

/// User + system CPU time of the whole process, in nanoseconds.
std::uint64_t process_cpu_ns();

/// Run-queue delay per live thread (tid -> ns waiting for a CPU), from
/// /proc/self/task/*/schedstat. Empty when the kernel does not expose it.
std::map<int, std::uint64_t> runq_delay_by_thread();

/// Sum of per-thread run-queue delay growth between two readings, over
/// the threads present in both.
std::uint64_t runq_delay_growth(const std::map<int, std::uint64_t>& before,
                                const std::map<int, std::uint64_t>& after);

struct HostInfo {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
};

HostInfo host_info();

}  // namespace perfbench
