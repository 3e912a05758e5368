#include "sim/workload.hpp"

#include <algorithm>

namespace cn {

TimedExecution generate_workload(const Network& net, const WorkloadSpec& spec,
                                 Xoshiro256& caller_rng) {
  TimedExecution exec;
  exec.net = &net;
  const std::uint32_t d = net.depth();
  const std::size_t tokens =
      std::size_t{spec.processes} * spec.tokens_per_process;
  exec.plans.reserve(tokens);
  exec.times.reserve(tokens * (d + 1));
  // Draw from a local copy, written back at the end: state behind the
  // reference would be reloaded and stored around every draw, since the
  // compiler cannot prove the appends below leave it alone.
  Xoshiro256 rng = caller_rng;
  const double extreme[2] = {spec.c_min, spec.c_max};
  const auto draw_delay = [&] {
    return spec.extreme_delays ? extreme[rng.below(2)]
                               : rng.uniform(spec.c_min, spec.c_max);
  };
  const double local_max = std::max(spec.local_delay_min, spec.local_delay_max);
  TokenId next_token = 0;
  for (ProcessId p = 0; p < spec.processes; ++p) {
    const std::uint32_t source = p % net.fan_in();
    double t = rng.uniform(0.0, spec.initial_stagger);
    for (std::uint32_t k = 0; k < spec.tokens_per_process; ++k) {
      // Random tie-break among simultaneous steps, but strictly
      // increasing within a process so that back-to-back tokens
      // (t_in == previous t_out) keep their step order (Section 2.2,
      // rule 3) even at the shared instant.
      const double rank = k + rng.unit() * 0.9;
      const std::span<double> row = exec.add(
          {.token = next_token++, .process = p, .source = source, .rank = rank});
      row[0] = t;
      for (std::uint32_t h = 1; h <= d; ++h) row[h] = row[h - 1] + draw_delay();
      t = row[d] + rng.uniform(spec.local_delay_min, local_max);
    }
  }
  caller_rng = rng;
  return exec;
}

}  // namespace cn
