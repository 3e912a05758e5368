// perfbench: the repository benchmark's binary. run.py builds it
// and invokes
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH] [--corrupt]
//
// It prints informational lines, one "alias NAME VALUE UNIT" line per
// headline figure under its established name, one "FAIL ..." line per failed correctness
// check, and last a JSON result:
//
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit status: 0 when every check passed, 1 when one failed, 2 on a usage
// error (no result printed).
#include <malloc.h>
#include <sys/personality.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"

namespace perfbench {

namespace {

bool is_sweep(const std::string& w) {
  return w == "sweep_wave_stream" || w == "sweep_probe";
}
bool is_service(const std::string& w) {
  return w == "service_closed_batch" || w == "service_open_recorded";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH] [--corrupt]\n";
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Address-space layout randomization moves code and data between runs,
  // which shifts cache and branch-predictor aliasing and with it the
  // figures of a whole run by several percent. Re-execute once without
  // it; if the kernel refuses, run randomized.
  const int persona = personality(0xffffffff);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE) != -1) {
    execv(argv[0], argv);
  }
  // A fixed mmap threshold turns off glibc's adaptive one, so large buffers
  // always return to the system when freed and peak RSS tracks live memory
  // rather than the allocator's history.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  pin_current_thread(Role::kProgram);
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (arg == "--workload" && has_value) {
        opt.workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        opt.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        opt.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace" && has_value) {
        opt.trace = std::string(argv[++i]) == "1";
      } else if (arg == "--spans" && has_value) {
        opt.spans_path = argv[++i];
      } else if (arg == "--corrupt") {
        opt.corrupt = true;
      } else {
        return usage("unknown argument '" + arg + "'");
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg);
    }
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 120.0)) {
    return usage("--seconds must be in (0, 120]");
  }

  Outcome out;
  try {
    if (is_sweep(opt.workload)) {
      run_sweep_workload(opt, out);
    } else if (is_service(opt.workload)) {
      run_service_workload(opt, out);
    } else {
      return usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    out.check(false, std::string("exception: ") + e.what());
  }
  if (out.attempted == 0) out.check(false, "no operation was attempted");

  for (const std::string& note : out.notes) std::cout << note << "\n";
  for (const auto& [name, m] : out.aliases) {
    std::cout << "alias " << name << " " << number(m.value) << " " << m.unit
              << "\n";
  }
  std::string metrics;
  for (const auto& [name, m] : out.metrics) {
    double v = m.value;
    if (!std::isfinite(v)) {
      out.check(false, "metric " + name + " is not finite");
      v = 0.0;
    }
    metrics += (metrics.empty() ? "" : ", ");
    metrics += "\"" + name + "\": {\"value\": " + number(v) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  for (const std::string& f : out.failures) std::cout << "FAIL " << f << "\n";
  const bool correct = out.failures.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {" << metrics
            << "}}" << std::endl;
  return correct ? 0 : 1;
}
