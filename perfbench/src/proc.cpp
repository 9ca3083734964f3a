#include "proc.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::uint64_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

std::uint64_t process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1000000000ULL +
           static_cast<std::uint64_t>(tv.tv_usec) * 1000ULL;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

std::map<int, std::uint64_t> runq_delay_by_thread() {
  std::map<int, std::uint64_t> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    const std::string path =
        std::string("/proc/self/task/") + e->d_name + "/schedstat";
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) continue;
    unsigned long long on_cpu = 0;
    unsigned long long waiting = 0;
    if (std::fscanf(f, "%llu %llu", &on_cpu, &waiting) == 2) {
      out[std::atoi(e->d_name)] = waiting;
    }
    std::fclose(f);
  }
  closedir(dir);
  return out;
}

std::uint64_t runq_delay_growth(const std::map<int, std::uint64_t>& before,
                                const std::map<int, std::uint64_t>& after) {
  std::uint64_t total = 0;
  for (const auto& [tid, ns] : after) {
    const auto it = before.find(tid);
    if (it != before.end() && ns >= it->second) total += ns - it->second;
  }
  return total;
}

HostInfo host_info() {
  HostInfo h;
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  h.nproc = n > 0 ? static_cast<unsigned>(n) : 0;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        h.cpu_model = line.substr(line.find_first_not_of(" \t", colon + 1));
      }
      break;
    }
  }
  if (h.cpu_model.empty()) h.cpu_model = "unknown";
  h.compiler = PERFBENCH_COMPILER;
  h.build_type = PERFBENCH_BUILD_TYPE;
  return h;
}

}  // namespace perfbench
