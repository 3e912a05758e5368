#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <map>
#include <string>

#include "common.hpp"

namespace perfbench {

double peak_rss_mb() {
  // VmHWM is the high-water mark of this image only; getrusage's ru_maxrss
  // would also count the parent process this one was forked from.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // The line is in kB.
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void pin_current_thread(Role role) {
  // The process's mask at the first call, before any narrowing.
  static const std::array<int, 2> cpus = [] {
    std::array<int, 2> found{-1, -1};
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return found;
    for (int cpu = 0, n = 0; cpu < CPU_SETSIZE && n < 2; ++cpu) {
      if (CPU_ISSET(cpu, &set)) found[n++] = cpu;
    }
    if (found[1] < 0) found[1] = found[0];
    return found;
  }();
  const int cpu = cpus[role == Role::kProgram ? 0 : 1];
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);  // 0: the calling thread.
}

namespace {

/// The kernel's results land here, so the compiler cannot drop the work.
volatile std::uint64_t g_kernel_sink = 0;

/// The reference kernel: sort 8 KiB of xorshift output, then insert and
/// look up 600 keys in a std::map. Cache-resident, branchy, allocating
/// integer work, like the workloads; it lives in the benchmark, so no
/// change to the program can alter its speed.
std::uint64_t reference_kernel(std::uint64_t seed) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + 1;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<std::uint32_t>(x);
  };
  std::array<std::uint32_t, 2048> v;
  for (std::uint32_t& e : v) e = next();
  std::sort(v.begin(), v.end());
  std::map<std::uint32_t, std::uint32_t> m;
  for (std::uint32_t i = 0; i < 600; ++i) m[next() & 4095] += i;
  std::uint64_t sum = v[v.size() / 2];
  for (std::uint32_t i = 0; i < 600; ++i) {
    const auto it = m.find(next() & 4095);
    if (it != m.end()) sum += it->second;
  }
  return sum;
}

}  // namespace

double HostSpeed::sample(unsigned reps) {
  const std::uint64_t t0 = now_ns();
  std::uint64_t sum = 0;
  for (unsigned r = 0; r < reps; ++r) sum += reference_kernel(++seed_);
  g_kernel_sink = sum;
  const auto elapsed = static_cast<double>(now_ns() - t0);
  total_ns_ += elapsed;
  total_reps_ += reps;
  return elapsed / (reps * kNominalNs);
}

}  // namespace perfbench
