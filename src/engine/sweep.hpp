// The parallel trial sweeper: runs `trials` independent backend runs of
// one RunSpec, deriving a per-trial seed from the base seed so that the
// aggregate is bit-identical at ANY sweeper thread count. This replaces
// the serial `for (trial) { generate; simulate; analyze; }` loop that
// every bench binary used to hand-roll.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "engine/run_result.hpp"
#include "engine/run_spec.hpp"

namespace cn::engine {

struct SweepSpec {
  RunSpec base;                ///< Per-trial spec; seed is the base seed.
  std::uint64_t trials = 100;
  /// Sweeper worker threads. 0 = hardware concurrency. Aggregates are
  /// deterministic regardless of this value.
  std::uint32_t threads = 0;

  /// Per-trial wall-clock watchdog, in milliseconds. 0 disables it (the
  /// default: trials run inline on the worker and reuse its arena).
  /// When set, each trial runs on a fresh thread; a trial that exceeds
  /// the budget is recorded as a "timeout" error and ABANDONED — its
  /// thread is detached (a hung C++ thread cannot be killed) but holds
  /// shared ownership of the sweep's network, so it cannot dangle. The
  /// other trials' aggregates are unaffected.
  std::uint64_t timeout_ms = 0;

  /// Bounded deterministic retry: a failed trial (except "spec_invalid",
  /// which can never succeed) is re-run up to this many extra times with
  /// a re-derived seed (retry_seed). Retries happen on the worker that
  /// owns the trial, so aggregates stay byte-identical at any thread
  /// count; the retry counts are recorded in SweepStats.
  std::uint32_t max_retries = 0;
};

/// Order-independent aggregate of a sweep. Everything here except
/// `wall_sec` is a pure function of (base spec, trials) — the
/// deterministic report must not include wall_sec.
struct SweepStats {
  std::uint64_t trials = 0;
  std::uint64_t completed = 0;  ///< Trials that produced a trace.
  std::uint64_t errors = 0;     ///< Trials whose backend failed.
  std::string first_error;      ///< Error of the lowest-index failed trial.

  /// Error taxonomy: one entry per ErrorKind that occurred, keyed by
  /// error_kind_name ("timeout", "spec_invalid", ...). The entry for the
  /// lowest-index failed trial carries the same message as first_error.
  struct ErrorEntry {
    std::uint64_t count = 0;
    std::uint64_t first_trial = 0;   ///< Lowest trial index of this kind.
    std::string first_message;       ///< Its (final-attempt) error text.
  };
  std::map<std::string, ErrorEntry> error_table;

  std::uint64_t retried_trials = 0;  ///< Trials that needed >= 1 retry.
  std::uint64_t total_retries = 0;   ///< Extra attempts across all trials.

  std::uint64_t lin_violations = 0;  ///< Completed trials with a non-lin token.
  std::uint64_t sc_violations = 0;   ///< Completed trials with a non-SC token.
  double worst_f_nl = 0.0;
  double worst_f_nsc = 0.0;
  std::uint64_t total_tokens = 0;    ///< Trace records across completed trials.

  /// Per-trial backend metrics summed in trial order (deterministic).
  std::map<std::string, double> metric_sums;

  double wall_sec = 0.0;  ///< Wall time; EXCLUDED from reports/JSON.
};

/// Deterministic per-trial seed: a SplitMix64 hash of the base seed and
/// the trial index. Identical at any thread count, well spread even for
/// consecutive base seeds.
std::uint64_t trial_seed(std::uint64_t base_seed, std::uint64_t trial);

/// Deterministic seed for retry `attempt` of a trial. Attempt 0 is the
/// original run: retry_seed(b, t, 0) == trial_seed(b, t). Later attempts
/// re-derive a fresh, well-spread seed from the same inputs — no global
/// state, so retries are replayable at any thread count.
std::uint64_t retry_seed(std::uint64_t base_seed, std::uint64_t trial,
                         std::uint32_t attempt);

/// Runs the sweep. Trials are distributed over `threads` workers; the
/// reduction into SweepStats happens serially in trial order afterwards,
/// which is what makes the aggregate thread-count independent.
SweepStats sweep_stats(const SweepSpec& spec);

}  // namespace cn::engine
