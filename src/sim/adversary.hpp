// Reconstructions of the paper's adversarial timed executions:
//
//  * run_wave_execution — the three-wave construction behind
//    Proposition 5.3 (ℓ = 1, bitonic) and Theorem 5.11 (general split
//    level ℓ on a uniform, continuously complete, continuously uniformly
//    splittable network).
//
//  * run_theorem32_transform — the Lemma 3.1 / Theorem 3.2 token-insertion
//    transform turning a non-linearizable timed execution into a
//    non-sequentially-consistent one satisfying the same c_min / c_max /
//    C_g timing condition.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/topology.hpp"
#include "core/valency.hpp"
#include "trace/consistency.hpp"
#include "sim/timed_execution.hpp"
#include "sim/timing.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace cn {

/// Parameters of the three-wave construction.
struct WaveSpec {
  std::uint32_t ell = 1;  ///< Split level, 1 <= ell <= sp(G).
  double c_min = 1.0;     ///< Fast per-wire delay.
  double c_max = 0.0;     ///< Slow per-wire delay; if 0, chosen just above
                          ///< the required ratio (1 + d / race_depth).
  /// When true (the Theorem 3.2 base-execution variant), wave 3 is issued
  /// by fresh processes instead of reusing wave 2's: the execution is then
  /// non-linearizable but sequentially consistent.
  bool distinct_processes = false;

  /// Local inter-operation delay imposed before wave 3 enters (the
  /// Theorem 4.1 C_L timer): wave 3 enters this long after wave 2 exits.
  /// The attack succeeds only while
  ///   wave3_extra_delay < race_depth(ell) * c_max -
  ///                       (race_depth(ell) + d(G)) * c_min,
  /// which is what the E3 sweep demonstrates.
  double wave3_extra_delay = 0.0;
};

/// Outcome of the wave construction.
struct WaveResult {
  TimedExecution exec;
  Trace trace;
  ConsistencyReport report;
  TimingParameters timing;
  double required_ratio = 0.0;  ///< 1 + d(G) / race_depth(ell).
  std::size_t wave1_size = 0, wave2_size = 0, wave3_size = 0;
  /// Theorem 5.11's predicted lower bounds for this ell.
  double predicted_f_nl = 0.0, predicted_f_nsc = 0.0;
  std::string error;  ///< Non-empty when the construction is inapplicable.

  bool ok() const noexcept { return error.empty(); }
};

/// Builds the three-wave execution at split level spec.ell without
/// simulating it: fills exec, timing, the wave sizes, the required ratio
/// and the predicted bounds, and leaves trace and report empty. The
/// network must be uniform with fan w (a power of two) and an applicable,
/// continuously complete, continuously uniformly splittable split
/// analysis (e.g. bitonic or periodic). Every error is a precondition of
/// the construction: this network shape, the split level, or (with an
/// automatic c_max) the ratio.
WaveResult build_wave_execution(const Network& net, const SplitAnalysis& split,
                                const WaveSpec& spec);

/// build_wave_execution, then simulates the execution and analyzes its
/// trace.
WaveResult run_wave_execution(const Network& net, const SplitAnalysis& split,
                              const WaveSpec& spec);

/// Outcome of the Theorem 3.2 transform.
struct Theorem32Result {
  TimedExecution base;
  ConsistencyReport base_report;
  TimingParameters base_timing;

  TimedExecution transformed;
  ConsistencyReport transformed_report;
  TimingParameters transformed_timing;

  TokenId witness_T = 0;        ///< Completed earlier with the larger value.
  TokenId witness_T_prime = 0;  ///< The later token with the smaller value.
  TokenId inserted_token = 0;   ///< Wave token relabeled to T's process.
  std::uint64_t inserted_per_wire = 0;  ///< Paper's W (or LCM-scaled count).
  std::string error;

  bool ok() const noexcept { return error.empty(); }
};

/// Randomized search for a timed execution that is non-linearizable yet
/// sequentially consistent — the kind of base execution Theorem 3.2's
/// transform consumes. Draws random extreme-delay workloads in
/// [c_min, c_max] until one qualifies or max_trials is exhausted.
/// Returns an execution with empty plans on failure.
TimedExecution find_nonlinearizable_sc_execution(const Network& net,
                                                 double c_min, double c_max,
                                                 std::uint64_t max_trials,
                                                 Xoshiro256& rng);

/// Applies the Theorem 3.2 construction to a non-linearizable timed
/// execution of a uniform counting network: finds a witness pair (T, T')
/// with different processes, inserts lockstep token waves riding T''s
/// layer times (one token per input wire, scaled by the LCM of balancer
/// fan-outs so every balancer's state is preserved — Lemma 3.1), and
/// relabels the inserted token that lands just ahead of T' to T's process.
/// The result is non-sequentially consistent and has the same c_min,
/// c_max envelope and no smaller C_g than the base execution.
Theorem32Result run_theorem32_transform(const Network& net,
                                        const TimedExecution& base);

}  // namespace cn
