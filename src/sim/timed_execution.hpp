// Timed executions of balancing networks (paper Section 2.3).
//
// A timed execution associates a real time with every step. For a uniform
// network of depth d, each token crosses exactly d + 1 nodes (d balancers
// plus its counter), so a token's schedule is a row of d + 1 layer
// crossing times: row[0] is the layer-1 crossing (the paper's t_in) and
// row[d] the counter crossing (t_out). Wire delays are the differences
// of consecutive crossing times. A TimedExecution keeps every row in one
// flat array, row i holding plans[i]'s times, so building, copying and
// freeing a schedule costs two allocations however many tokens it has.
//
// Simultaneous steps are legal and heavily used by the paper's adversary
// constructions; the `rank` field provides the deterministic order in
// which simultaneous steps occur (lower rank first).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/sequential.hpp"
#include "core/topology.hpp"

namespace cn {

/// Who a token is and how it ties; its crossing times are the plan's row
/// of TimedExecution::times.
struct TokenPlan {
  TokenId token = 0;
  ProcessId process = 0;
  std::uint32_t source = 0;       ///< Input wire the token enters on.
  double rank = 0.0;              ///< Tie-break among simultaneous steps.
};

/// A timed execution: a uniform network plus one plan per token.
struct TimedExecution {
  const Network* net = nullptr;
  std::vector<TokenPlan> plans;
  /// Crossing times, row-major with stride() = d(G)+1: row i holds
  /// plans[i]'s non-decreasing crossing times.
  std::vector<double> times;

  /// Times per plan. Requires net.
  std::size_t stride() const noexcept { return net->depth() + 1; }

  std::span<double> times_of(std::size_t i) noexcept {
    return {times.data() + i * stride(), stride()};
  }
  std::span<const double> times_of(std::size_t i) const noexcept {
    return {times.data() + i * stride(), stride()};
  }
  double t_in(std::size_t i) const noexcept { return times[i * stride()]; }
  double t_out(std::size_t i) const noexcept {
    return times[(i + 1) * stride() - 1];
  }

  /// Appends `plan` with a zeroed row and returns the row for the caller
  /// to fill. Requires net. The span is invalidated by the next add().
  std::span<double> add(const TokenPlan& plan) {
    const std::size_t w = stride();
    plans.push_back(plan);
    times.resize(times.size() + w);
    return {times.data() + times.size() - w, w};
  }
};

/// Validates well-formedness: times holds one row of d(G)+1 crossing
/// times per plan, each row finite and non-decreasing, token ids unique,
/// sources in range, and tokens of the same process do not overlap in
/// time (paper Section 2.2, rule 3). Returns a description of the first
/// problem, or an empty string when valid.
///
/// The per-plan checks run in plan order, so the first bad plan (or the
/// first repeated token id) is the one reported. The overlap check walks
/// each process's tokens in (t_in, t_out, token) order, which is total:
/// its verdict does not depend on the order of exec.plans. A schedule
/// whose token ids increase and whose plans are already in (process,
/// t_in, t_out, token) order, as generate_workload's are, is validated
/// without a heap allocation. Back-to-back
/// tokens (t_in equal to the previous t_out) pass here, including
/// zero-duration tokens sharing an instant with their neighbor; whether
/// their steps interleave is decided by rank at run time, by the
/// simulator's step-order overlap check.
std::string validate(const TimedExecution& exec);

/// Convenience: appends a plan with constant wire delay `delay` starting
/// at `t_in` (so row[k] = t_in + k * delay) and returns its row.
/// Requires exec.net.
std::span<double> add_uniform_plan(TimedExecution& exec, TokenId token,
                                   ProcessId process, std::uint32_t source,
                                   double t_in, double delay,
                                   double rank = 0.0);

}  // namespace cn
