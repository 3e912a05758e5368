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
  return args.get_uint<std::uint32_t>("threads", 0, kMaxThreadsFlag);
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
