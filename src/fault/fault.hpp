// Deterministic, seed-driven fault injection (the robustness layer).
//
// The paper's consistency fractions (Props 5.2-5.4) and the counting /
// smoothness properties all assume every token completes its traversal.
// This module drops that assumption on purpose: a FaultPlan describes a
// probabilistic fault mix (token loss, stuck balancers, crashed
// processes, message duplication / unbounded delay, thread stalls and
// abandonment), and every fault decision is drawn from a dedicated
// Xoshiro256 stream derived from (plan.seed, run seed) — never from the
// workload's own RNG. Two consequences:
//
//   * zero-fault identity: a disabled (or all-zero) plan consumes no
//     randomness, so workloads are bit-identical with and without the
//     fault layer linked in;
//   * deterministic replays: the same (spec seed, plan) produces the
//     same faults at any sweeper thread count, so degradation curves
//     are reproducible from a single base seed.
//
// draw_sim_faults() turns a plan into the concrete SimFaults overlay that
// the simulate* overloads of sim/simulator.hpp interpret.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/sink.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace cn {

class Network;
struct SimFaults;
struct TimedExecution;

}  // namespace cn

namespace cn::fault {

/// Probabilistic fault mix for one run. Backends read the subset of
/// knobs that is meaningful for their execution model (mirroring how
/// RunSpec works) and ignore the rest:
///
///   simulator / sim_burst / sim_heterogeneous / wave / optimizer:
///     p_token_loss, p_stuck_balancer, p_process_crash
///   msg: p_token_loss (dropped message), p_process_crash (client stops
///     issuing), p_msg_duplicate, p_msg_delay; no actor is ever stuck
///   concurrent + baseline counters (the real-thread closed loop):
///     p_thread_stall, p_thread_abandon, p_process_crash (a thread stops
///     issuing)
///   service workers: p_thread_stall, p_thread_abandon
///
/// A service worker crash is deterministic, not probabilistic: it is a
/// fault::ChaosPlan event (chaos.hpp), keyed on the worker's
/// processed-request count.
struct FaultPlan {
  /// Master switch. When false the plan is inert regardless of the
  /// probabilities, and every backend takes its pre-existing code path
  /// byte-for-byte (the zero-fault identity guarantee).
  bool enabled = false;

  /// Mixed with the run's seed to derive the fault stream, so the same
  /// workload can be replayed under independent fault draws.
  std::uint64_t seed = 0;

  // --- simulated-network faults ---------------------------------------
  /// Per-token probability that the token vanishes mid-traversal: it
  /// crosses a prefix of its balancers (toggling them) and never reaches
  /// its counter.
  double p_token_loss = 0.0;
  /// Per-balancer probability that the balancer's toggle is wedged for
  /// the whole run: it still forwards tokens, but always out of the port
  /// it froze at (position 0, the initial state).
  double p_stuck_balancer = 0.0;
  /// Per-process probability that the process crashes: one of its tokens
  /// (chosen uniformly) is lost mid-traversal and all its later tokens
  /// are never issued.
  double p_process_crash = 0.0;

  // --- message-kernel faults ------------------------------------------
  /// Per-forward probability that a token-carrying message is delivered
  /// twice (at-least-once delivery).
  double p_msg_duplicate = 0.0;
  /// Per-message probability that the latency blows through the
  /// [c_min, c_max] envelope, 8x (msg/service.cpp's kMsgDelayFactor).
  double p_msg_delay = 0.0;

  // --- real-thread faults ---------------------------------------------
  /// Per-operation probability that the thread stalls for stall_ns at a
  /// random hop (a descheduled shepherd).
  double p_thread_stall = 0.0;
  std::uint64_t stall_ns = 200000;  ///< 0.2 ms per injected stall.
  /// Per-operation probability that the thread abandons its token
  /// mid-traversal (balancer steps already taken are not undone) and
  /// moves on to its next operation. For flat baseline counters this is
  /// a lost update: the value is fetched but never observed.
  double p_thread_abandon = 0.0;

  /// True when the plan can actually inject something.
  bool active() const noexcept {
    return enabled &&
           (p_token_loss > 0.0 || p_stuck_balancer > 0.0 ||
            p_process_crash > 0.0 || p_msg_duplicate > 0.0 ||
            p_msg_delay > 0.0 || p_thread_stall > 0.0 ||
            p_thread_abandon > 0.0);
  }

  /// True when any simulated-network fault is requested.
  bool sim_faults() const noexcept {
    return enabled && (p_token_loss > 0.0 || p_stuck_balancer > 0.0 ||
                       p_process_crash > 0.0);
  }

  /// True when any real-thread fault is requested.
  bool thread_faults() const noexcept {
    return enabled && (p_thread_stall > 0.0 || p_thread_abandon > 0.0);
  }
};

/// Derives the fault-stream seed for one run. Pure function of its
/// inputs; `stream` separates independent consumers (e.g. per-thread
/// streams in the concurrent harness) so they never share draws.
std::uint64_t fault_seed(std::uint64_t plan_seed, std::uint64_t run_seed,
                         std::uint64_t stream = 0);

/// The dedicated fault RNG. All fault decisions for one run come from
/// one stream, drawn in a fixed documented order, so a (plan, seed) pair
/// replays exactly.
class FaultStream {
 public:
  FaultStream(const FaultPlan& plan, std::uint64_t run_seed,
              std::uint64_t stream = 0)
      : rng_(fault_seed(plan.seed, run_seed, stream)) {}

  /// Bernoulli draw. A probability <= 0 returns false WITHOUT consuming
  /// randomness, so unrelated fault knobs do not perturb each other's
  /// draws.
  bool flip(double p) {
    if (p <= 0.0) return false;
    return rng_.unit() < p;
  }

  /// Uniform integer in [lo, hi]. Precondition: lo <= hi.
  std::uint64_t pick(std::uint64_t lo, std::uint64_t hi) {
    return rng_.range(lo, hi);
  }

 private:
  Xoshiro256 rng_;
};

/// Draws a concrete overlay for `exec` from the plan's fault stream.
/// Draw order is fixed (balancers ascending, then processes ascending,
/// then tokens in plan order) so a (plan, run_seed) pair replays
/// identically at any thread count. The overlay's per-token entries are
/// indexed by plan, so its size is the schedule's, however large the
/// token ids.
SimFaults draw_sim_faults(const Network& net, const TimedExecution& exec,
                          const FaultPlan& plan, std::uint64_t run_seed);

/// Quantitative damage report for a (possibly fault-degraded) trace —
/// the per-trial ingredients of a graceful-degradation curve.
struct Degradation {
  /// 1.0 when the returned values are not exactly {0, 1, ..., n-1}
  /// (gaps or duplicates): the counting property failed.
  double counting_violation = 0.0;
  /// max - min of per-sink exit counts. A counting network at
  /// quiescence has the step property, so the gap is at most 1.
  double smoothness_gap = 0.0;
  /// 1.0 when smoothness_gap exceeds 1 (gamma-smoothness with gamma=1).
  double smoothness_violation = 0.0;
};

/// Computes the degradation report of a trace. `fan_out` is the number
/// of sinks (pass 0 for single-counter baselines: the smoothness gap is
/// then over the sinks that appear in the trace). The sink range is
/// computed in 64 bits, and memory is bounded by the number of records,
/// however large the sink ids and values (DegradationAccumulator).
Degradation degradation(const Trace& trace, std::uint32_t fan_out);

/// Streaming equivalent of degradation(): accumulates per-record and
/// produces the identical report from result(fan_out), in any record
/// order. Memory is O(records), never sized by a record's value or sink:
/// a value bitmap (which detects gaps and duplicates without
/// materializing the trace) and a per-sink count array each cover the ids
/// below about twice the records seen so far, and the rare larger ids
/// spill into side lists that result() sorts and reconciles. A counting
/// network hands out values below fan_out * tokens, so in practice
/// nearly every record lands in the dense arrays; a hostile replayed
/// record (sink 0xFFFFFFFF, value 2^64 - 1) costs one list entry. The
/// bitmap grows geometrically (within that bound), so an ascending value
/// stream resizes it O(log records) times, and may cover values no
/// record holds: the largest value is kept apart.
class DegradationAccumulator final : public TraceSink {
 public:
  void on_record(const TokenRecord& record) override {
    ++records_;
    if (record.value < value_seen_.size()) {
      duplicate_value_ |= value_seen_[record.value];
      value_seen_[record.value] = true;
      max_value_ = std::max(max_value_, record.value);
    } else {
      add_rare_value(record.value);
    }
    if (record.sink < sink_counts_.size()) {
      ++sink_counts_[record.sink];
    } else {
      add_rare_sink(record.sink);
    }
  }
  void on_records(std::span<const TokenRecord> records) override {
    for (const TokenRecord& r : records) on_record(r);
  }
  void finish() override {}

  void reset();
  std::uint64_t records() const noexcept { return records_; }

  /// The report for everything accumulated so far; byte-identical to
  /// degradation(trace, fan_out) over the same records.
  Degradation result(std::uint32_t fan_out) const;

 private:
  /// Ids below this bound go to the dense arrays: twice the records seen,
  /// plus room for the sinks of any practical network and the first
  /// values of a stream.
  std::uint64_t dense_limit() const noexcept { return 2 * records_ + 1024; }
  void add_rare_value(Value v);
  void add_rare_sink(std::uint32_t sink);

  std::uint64_t records_ = 0;
  bool duplicate_value_ = false;  ///< A value repeated in the bitmap.
  Value max_value_ = 0;           ///< The largest value seen (0 if none).
  /// One flag per value, grown geometrically past the largest value that
  /// went dense.
  std::vector<bool> value_seen_;
  std::vector<Value> value_spill_;  ///< Values past the bitmap on arrival.
  /// Records per sink, sized to the largest sink that went dense.
  std::vector<std::uint64_t> sink_counts_;
  std::vector<std::uint32_t> sink_spill_;  ///< One entry per spilled record.
};

}  // namespace cn::fault
