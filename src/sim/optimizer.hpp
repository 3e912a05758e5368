// Search-based schedule adversary: hill climbing over per-hop delay
// choices and entry slacks, maximizing the non-SC fraction F_nsc subject
// to the wire-delay envelope [c_min, c_max] and a local-delay floor.
//
// The paper leaves the tightness of its bounds open (Open Problems 4 and
// 5); this optimizer is the empirical instrument for those questions —
// it regularly rediscovers the three-wave structure on its own, and the
// gap between what it achieves and Theorem 5.4's (ℓ-2)/(ℓ-1) ceiling is
// exactly the open tightness gap.
#pragma once

#include <cstdint>

#include "trace/consistency.hpp"
#include "sim/timed_execution.hpp"
#include "util/rng.hpp"

namespace cn {

struct OptimizerSpec {
  std::uint32_t processes = 8;
  std::uint32_t tokens_per_process = 3;
  double c_min = 1.0;
  double c_max = 4.0;
  double local_delay_min = 0.0;  ///< C_L floor every schedule must honor.

  std::uint32_t iterations = 1500;  ///< Mutations per restart.
  std::uint32_t restarts = 4;
  std::uint64_t seed = 1;
};

struct OptimizerResult {
  TimedExecution best;        ///< The best schedule found.
  ConsistencyReport report;   ///< Its analysis.
  double best_fraction = 0.0;
  std::uint64_t evaluations = 0;
};

/// Runs the search. Every candidate schedule uses per-hop delays from
/// {c_min, c_max} (the extreme points, which suffice for all the paper's
/// constructions), entry slacks >= 0 on top of the local-delay floor,
/// and per-process increasing ranks. Deterministic per seed.
OptimizerResult optimize_schedule(const Network& net, const OptimizerSpec& spec);

}  // namespace cn
