// Message-passing counting-network service: instantiates a Network as
// actors on the event kernel and runs closed-loop client processes
// against it, producing a Trace for the consistency analyzers.
#pragma once

#include <cstdint>
#include <string>

#include "core/topology.hpp"
#include "fault/fault.hpp"
#include "msg/event_kernel.hpp"
#include "trace/trace.hpp"
#include "trace/sink.hpp"

namespace cn::msg {

/// Workload and latency model for a message-passing run.
struct MsgRunSpec {
  std::uint32_t processes = 4;
  std::uint32_t ops_per_process = 8;
  double c_min = 1.0;            ///< Minimum per-message (wire) latency.
  double c_max = 2.0;            ///< Maximum per-message latency.
  bool extreme_latencies = true; ///< Draw from {c_min, c_max} only.
  double local_delay = 0.0;      ///< Client think time between operations
                                 ///< (the C_L knob of Theorem 4.1).
  std::uint64_t seed = 1;
  /// When true, every message carrying a token of process 0 takes c_max
  /// while all other tokens travel at c_min — the heterogeneous
  /// per-process delay (c_min^P) model of Section 2.3, and the easiest
  /// way to realize overtaking in a closed-loop message-passing system.
  bool slow_process_zero = false;

  /// Message-level fault injection (fault/fault.hpp). The kernel reads
  /// p_token_loss (a token-carrying message is dropped — the token
  /// vanishes and its client's loop halts), p_msg_duplicate
  /// (at-least-once delivery), p_msg_delay / msg_delay_factor (latency
  /// escapes the [c_min, c_max] envelope), and p_process_crash (the
  /// client stops issuing after a uniformly chosen operation). Fault
  /// decisions come from a dedicated stream derived from (fault.seed,
  /// seed): a disabled plan leaves the run byte-identical.
  fault::FaultPlan fault;
};

struct MsgRunResult {
  Trace trace;                 ///< One record per completed operation.
  double sim_time = 0.0;       ///< Simulated time at drain.
  std::uint64_t messages = 0;  ///< Messages delivered in total.

  // Fault accounting (all zero when the plan is disabled).
  std::uint64_t tokens_lost = 0;       ///< Token messages dropped.
  std::uint64_t dup_deliveries = 0;    ///< Extra deliveries injected.
  std::uint64_t delayed_messages = 0;  ///< Latencies blown past c_max.
  std::uint64_t clients_crashed = 0;   ///< Clients that stopped issuing.

  std::string error;

  bool ok() const noexcept { return error.empty(); }
};

/// Structural validation of a spec: empty string when runnable, else a
/// description of the first problem (empty workload, non-finite or
/// inverted latency envelope, ...). run_message_passing rejects invalid
/// specs with the same message instead of silently proceeding.
std::string validate(const MsgRunSpec& spec);

/// Runs the workload to completion. Process p enters on input wire
/// p mod fan_in. In the produced trace, t_in / first_seq are taken at
/// the token's delivery to its first node (the layer-1 crossing) and
/// t_out / last_seq at its delivery to the counter — matching the
/// schedule conventions of Section 2.3.
MsgRunResult run_message_passing(const Network& net, const MsgRunSpec& spec);

/// Streaming variant: emits completed operations to `sink` in ISSUE
/// order (counter deliveries happen in kernel-seq order and pass through
/// an IssueWindowBuffer; a token lost after entering the network drops
/// its issue slot at the loss) and leaves MsgRunResult::trace empty;
/// bookkeeping is O(processes). Requires p_msg_duplicate == 0 — a
/// duplicated delivery re-counts a token after emission, which only the
/// collect path can express — and rejects such specs with an error. Does
/// not call sink.finish().
MsgRunResult run_message_passing(const Network& net, const MsgRunSpec& spec,
                                 TraceSink& sink);

}  // namespace cn::msg
