// Randomized timed-execution generators used by the Table-1 probes and
// the Theorem 4.1 / Theorem 5.4 sweeps.
#pragma once

#include <cstdint>

#include "sim/timed_execution.hpp"
#include "util/rng.hpp"

namespace cn {

/// Shape of a randomized closed-loop workload. Each process repeatedly
/// shepherds tokens through the network; per-wire delays are drawn from
/// [c_min, c_max] and consecutive operations of a process are separated
/// by a local delay drawn from [local_delay_min, local_delay_max].
struct WorkloadSpec {
  std::uint32_t processes = 4;
  std::uint32_t tokens_per_process = 4;
  double c_min = 1.0;
  double c_max = 2.0;
  double local_delay_min = 0.0;
  double local_delay_max = 0.0;
  /// When true, wire delays are drawn from the two-point set
  /// {c_min, c_max} instead of the full interval — the adversarially
  /// extreme choice, which finds violations far faster.
  bool extreme_delays = true;
};

/// Generates a random timed execution. Process i is assigned input wire
/// i mod fan_in (the paper's fixed-wire assumption) and first enters at
/// a time drawn from [0, 4). Deterministic per RNG state.
TimedExecution generate_workload(const Network& net, const WorkloadSpec& spec,
                                 Xoshiro256& rng);

}  // namespace cn
