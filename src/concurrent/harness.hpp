// Multithreaded driver for concurrent counting structures: runs N threads
// in a closed loop, optionally pacing wire delays and local
// inter-operation delays, and records a Trace compatible with the
// consistency analyzers in src/sim. The shared-memory network and the
// baseline counters run through the same recorded loop (per-thread
// fault streams, crash points, start barrier, partial-trace merge); each
// supplies only its operation step.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "concurrent/concurrent_network.hpp"
#include "fault/fault.hpp"
#include "sim/timed_execution.hpp"
#include "trace/trace.hpp"
#include "trace/sink.hpp"

namespace cn {

/// Parameters for a recorded concurrent run. A counter run
/// (run_recorded_counter) reads threads, ops_per_thread, seed and fault;
/// the pacing, local-delay and schedule knobs are the network's.
struct ConcurrentRunSpec {
  std::uint32_t threads = 4;
  std::uint64_t ops_per_thread = 100;

  /// Wire-delay envelope, in nanoseconds of busy-wait per hop: each hop
  /// spins for a duration drawn from [hop_delay_min_ns, hop_delay_max_ns].
  /// Zero disables pacing.
  std::uint64_t hop_delay_min_ns = 0;
  std::uint64_t hop_delay_max_ns = 0;

  /// Local inter-operation delay floor (Theorem 4.1's C_L timer): each
  /// thread busy-waits this long between finishing one operation and
  /// starting the next.
  std::uint64_t local_delay_ns = 0;

  std::uint64_t seed = 1;

  /// When true, every node crossing is timestamped and the run also
  /// yields a TimedExecution-compatible schedule, so the six timing
  /// parameters of Section 2.3 can be MEASURED from the live run with
  /// measure_timing (e.g. to check the Theorem 4.1 premise empirically).
  bool record_schedule = false;

  /// Thread-level fault injection (fault/fault.hpp). The harness reads
  /// p_thread_stall / stall_ns (a thread freezes mid-hop, holding its
  /// token inside the network), p_thread_abandon (a token is dropped
  /// mid-traversal after its balancer steps were taken — the footprint
  /// of a crash between hops), and p_process_crash (a thread stops
  /// issuing after a uniformly chosen operation). Decisions come from
  /// per-thread streams derived from (fault.seed, seed, thread), so the
  /// injected mix is deterministic even though real-thread interleaving
  /// is not.
  fault::FaultPlan fault;
};

/// Outcome of a recorded run.
struct ConcurrentRunResult {
  Trace trace;            ///< One record per completed operation.
  double elapsed_sec = 0.0;
  std::uint64_t total_ops = 0;
  double ops_per_sec = 0.0;
  /// Per-operation layer-crossing times (seconds); only filled when
  /// spec.record_schedule. Feed to measure_timing via as_timed_execution.
  TimedExecution schedule;

  // Fault accounting (all zero when the plan is disabled).
  std::uint64_t stalls = 0;  ///< Freezes injected (network: mid-hop).
  /// Operations a fault dropped after they took their steps: tokens
  /// abandoned mid-traversal, or counter values fetched and never used.
  std::uint64_t tokens_abandoned = 0;
  std::uint64_t threads_crashed = 0;  ///< Threads that stopped issuing.

  std::string error;

  bool ok() const noexcept { return error.empty(); }
};

/// Structural validation of a spec: empty string when runnable, else a
/// description of the first problem. run_recorded and
/// run_recorded_counter reject invalid specs with the same message
/// instead of silently proceeding.
std::string validate(const ConcurrentRunSpec& spec);

/// Runs `spec.threads` threads against the network; thread i acts as
/// process i on input wire i mod fan_in. Every operation is timestamped
/// (steady clock, before the first hop and after the counter) so the
/// resulting trace can be fed to analyze() / is_sequentially_consistent().
///
/// With a `sink`, the merged records go there in global ISSUE order
/// ((first_seq, last_seq, token), via merge_issue_ordered: each thread's
/// sequential partial is sorted by that key already, so the partials are
/// merged, not re-sorted) and ConcurrentRunResult::trace stays empty.
/// Threads still buffer their own records during the run so the sink
/// never sits on the timed path. Does not call sink->finish().
ConcurrentRunResult run_recorded(ConcurrentNetwork& net,
                                 const ConcurrentRunSpec& spec,
                                 TraceSink* sink = nullptr);

/// The same recorded loop around any counter: `next(thread)` must return
/// a fresh value. Records carry source = thread and sink = 0. A stall
/// fault spins before the call; an abandon fault drops the fetched value
/// (counted in tokens_abandoned). Sink semantics as run_recorded.
ConcurrentRunResult run_recorded_counter(
    const std::function<std::uint64_t(std::uint32_t)>& next,
    const ConcurrentRunSpec& spec, TraceSink* sink = nullptr);

/// Unrecorded throughput run against any counter functor: `next(thread)`
/// must return a fresh value. Returns operations per second.
double run_throughput(std::uint32_t threads, std::uint64_t ops_per_thread,
                      const std::function<std::uint64_t(std::uint32_t)>& next);

/// Batched twin of run_throughput: each call to
/// `next_batch(thread, out, k)` must produce k fresh values into out.
/// Every thread shepherds `tokens_per_thread` tokens in chunks of
/// `batch` (final chunk smaller when batch does not divide the total).
/// Returns TOKENS per second, directly comparable with run_throughput's
/// operations per second.
double run_batch_throughput(
    std::uint32_t threads, std::uint64_t tokens_per_thread,
    std::uint32_t batch,
    const std::function<void(std::uint32_t, std::uint64_t*, std::uint32_t)>&
        next_batch);

}  // namespace cn
