// Timed executions of balancing networks (paper Section 2.3).
//
// A timed execution associates a real time with every step. For a uniform
// network of depth d, each token crosses exactly d + 1 nodes (d balancers
// plus its counter), so a token's schedule is a vector of d + 1 layer
// crossing times: times[0] is the layer-1 crossing (the paper's t_in) and
// times[d] the counter crossing (t_out). Wire delays are the differences
// of consecutive crossing times.
//
// Simultaneous steps are legal and heavily used by the paper's adversary
// constructions; the `rank` field provides the deterministic order in
// which simultaneous steps occur (lower rank first).
#pragma once

#include <cstdint>
#include <vector>

#include "core/sequential.hpp"
#include "core/topology.hpp"

namespace cn {

/// Complete timing plan for one token.
struct TokenPlan {
  TokenId token = 0;
  ProcessId process = 0;
  std::uint32_t source = 0;       ///< Input wire the token enters on.
  std::vector<double> times;      ///< d(G)+1 non-decreasing crossing times.
  double rank = 0.0;              ///< Tie-break among simultaneous steps.

  double t_in() const { return times.front(); }
  double t_out() const { return times.back(); }
};

/// A timed execution: a uniform network plus one plan per token.
struct TimedExecution {
  const Network* net = nullptr;
  std::vector<TokenPlan> plans;
};

/// Validates well-formedness: plan sizes equal d(G)+1, times non-decreasing,
/// token ids unique, sources in range, and tokens of the same process do
/// not overlap in time (paper Section 2.2, rule 3). Returns a description
/// of the first problem, or an empty string when valid.
///
/// The per-plan checks run in plan order, so the first bad plan (or the
/// first repeated token id) is the one reported. The overlap check walks
/// each process's tokens in (t_in, t_out, token) order, which is total:
/// its verdict does not depend on the order of exec.plans. Back-to-back
/// tokens (t_in equal to the previous t_out) pass here, including
/// zero-duration tokens sharing an instant with their neighbor; whether
/// their steps interleave is decided by rank at run time, by the
/// simulator's step-order overlap check.
std::string validate(const TimedExecution& exec);

/// Convenience: builds a plan with constant wire delay `delay` starting at
/// `t_in` (so times[k] = t_in + k * delay).
TokenPlan make_uniform_plan(TokenId token, ProcessId process,
                            std::uint32_t source, std::uint32_t depth,
                            double t_in, double delay, double rank = 0.0);

}  // namespace cn
