// Timing parameters of a timed execution (paper Section 2.3) and timing
// conditions over them.
#pragma once

#include <limits>
#include <map>
#include <optional>

#include "sim/timed_execution.hpp"

namespace cn {

/// All six timing parameters, measured from a schedule. Parameters that
/// are minima over empty sets (no consecutive same-process tokens, or no
/// non-overlapping pair) come back as std::nullopt.
struct TimingParameters {
  double c_min = std::numeric_limits<double>::infinity();  ///< min wire delay
  double c_max = 0.0;                                      ///< max wire delay
  std::optional<double> C_L;  ///< min local inter-operation delay
  std::optional<double> C_g;  ///< min global inter-operation delay
  std::map<ProcessId, double> c_min_p;  ///< per-process min wire delay
  std::map<ProcessId, double> C_L_p;    ///< per-process local delay

  /// c_max / c_min; +inf when c_min is 0.
  double ratio() const {
    return c_min > 0 ? c_max / c_min
                     : std::numeric_limits<double>::infinity();
  }
};

/// Measures all timing parameters of `exec` (paper Section 2.3). A
/// non-empty `exec` needs its network and one row of times per plan.
TimingParameters measure_timing(const TimedExecution& exec);

/// A timing condition in the style of Sections 3-4: bounds the wire-delay
/// envelope and optionally imposes lower bounds on C_L and/or C_g.
struct TimingCondition {
  double c_min = 0.0;    ///< Asserted lower bound on every wire delay.
  double c_max = std::numeric_limits<double>::infinity();  ///< Upper bound.
  std::optional<double> C_L_at_least;  ///< Lower bound on local delay.
  std::optional<double> C_g_at_least;  ///< Lower bound on global delay.
};

/// True iff `exec` satisfies the condition: every wire delay lies in
/// [c_min, c_max] and the measured C_L / C_g (when the condition bounds
/// them) are at least the required values. Minima over empty sets are
/// treated as +infinity (the condition is vacuously met).
bool satisfies(const TimedExecution& exec, const TimingCondition& cond);

/// The paper's sufficient local condition for sequential consistency
/// (Theorem 4.1): d(G) * (c_max - 2 c_min) < C_L.
bool theorem41_premise_holds(const Network& net, const TimingCondition& cond);

}  // namespace cn
