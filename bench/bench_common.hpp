// Shared helpers for the experiment harnesses in bench/. All trace
// production and trial sweeping goes through the engine registry
// (src/engine): benches build a RunSpec, run it once with run_backend,
// or fan trials out with the parallel sweeper.
#pragma once

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <type_traits>

#include "core/constructions.hpp"
#include "engine/engine.hpp"
#include "trace/consistency.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace cn::bench {

/// Sweeper thread count for bench binaries: `--threads N` when given,
/// otherwise all hardware threads (aggregates are identical either way —
/// the engine derives per-trial seeds deterministically).
inline std::uint32_t sweep_threads(const CliArgs& args) {
  return static_cast<std::uint32_t>(args.get_int("threads", 0));
}

/// RunSpec for the randomized violation search every probe bench uses:
/// the "simulator" backend with the closed-loop extreme-delay workload.
inline engine::RunSpec random_search_spec(const Network& net, double c_min,
                                          double c_max, std::uint64_t seed,
                                          double local_delay_min = 0.0,
                                          std::uint32_t processes = 8,
                                          std::uint32_t tokens_per_process = 4) {
  engine::RunSpec spec;
  spec.backend = "simulator";
  spec.net = &net;
  spec.processes = processes;
  spec.ops_per_process = tokens_per_process;
  spec.c_min = c_min;
  spec.c_max = c_max;
  spec.local_delay_min = local_delay_min;
  spec.seed = seed;
  return spec;
}

/// Runs `trials` random workloads through the engine sweeper and counts
/// executions violating linearizability / sequential consistency.
inline engine::SweepStats search_violations(const engine::RunSpec& base,
                                            std::uint64_t trials,
                                            std::uint32_t threads = 0) {
  engine::SweepSpec sweep;
  sweep.base = base;
  sweep.trials = trials;
  sweep.threads = threads;
  return engine::sweep_stats(sweep);
}

/// Single adversarial wave run through the engine's "wave" backend.
inline engine::RunResult run_wave(const Network& net, std::uint32_t ell,
                                  double c_min = 1.0, double wave_c_max = 0.0,
                                  bool distinct_processes = false,
                                  double wave3_extra_delay = 0.0) {
  engine::RunSpec spec;
  spec.backend = "wave";
  spec.net = &net;
  spec.ell = ell;
  spec.c_min = c_min;
  spec.wave_c_max = wave_c_max;
  spec.distinct_processes = distinct_processes;
  spec.wave3_extra_delay = wave3_extra_delay;
  return engine::run_backend(spec);
}

inline std::string yes_no(bool b) { return b ? "yes" : "no"; }

/// Compiler barrier that makes `value` observable, so the work producing
/// it cannot be elided, and clobbers all memory, so pending stores are
/// emitted before it; it emits no instruction. The operands are
/// google-benchmark's DoNotOptimize on GCC: register or memory for a
/// small trivially copyable value, memory otherwise (a register
/// alternative would copy a large object, GCC bug 105519).
template <class T>
[[gnu::always_inline]] inline void do_not_optimize(const T& value) {
  if constexpr (std::is_trivially_copyable_v<T> && sizeof(T) <= sizeof(T*)) {
    asm volatile("" : : "r,m"(value) : "memory");
  } else {
    asm volatile("" : : "m"(value) : "memory");
  }
}

/// Calibrated wall-clock rate: repeats `batch()` — each call performing
/// `batch_units` units of work — until `min_seconds` of measured time has
/// accumulated, then returns units per second. One untimed warm-up batch
/// runs first so cold caches and lazy allocations don't pollute the rate.
/// bench_micro times every report section with it.
template <class Batch>
inline double measure_rate(std::uint64_t batch_units, double min_seconds,
                           Batch&& batch) {
  using clock = std::chrono::steady_clock;
  batch();  // warm-up, untimed
  std::uint64_t units = 0;
  const auto start = clock::now();
  double elapsed = 0.0;
  do {
    batch();
    units += batch_units;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < min_seconds);
  return static_cast<double>(units) / elapsed;
}

}  // namespace cn::bench
