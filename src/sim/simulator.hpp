// Discrete-event simulator: plays a TimedExecution on the compiled
// network state, in (time, rank) order, producing the trace of values.
//
// The simulator IS the paper's execution model: the adversary fixes when
// every token crosses every layer; the balancer round-robin semantics
// then determine routing and values deterministically.
//
// The network state is one CompiledState per arena (core/compiled.hpp):
// a balancer's state is the number of tokens through it, whose residue
// mod the fan-out is the paper's toggle, and a counter's is its next
// value. Every interpreter body advances a token through the one hop of
// core/wave.hpp (step_token) over that state; the token's only state is
// its current wire, indexed by the token's plan, never by its id. The
// hot path materializes no Step records; simulate_recorded() builds its
// step log from the route and state each hop is about to read. In-flight
// tokens are tracked in a vector with one slot per process that has a
// token (never sized by the largest process id). The (time, rank, token,
// hop) step order comes from a merge of per-process step streams: a
// process's tokens never overlap in the step sequence (Section 2.2, rule
// 3), so each stream is already sorted, and the merge holds one pending
// step per process, not per token. Repeated simulations of the same
// network should share a SimArena: it caches the compiled tables and
// reuses every per-trial buffer.
//
// Fault overlays. The overloads taking a SimFaults interpret the SAME
// execution under an overlay that edits its step sequence, deliberately
// breaking the liveness property of Section 2.2:
//
//   * lost tokens cross a prefix of their planned hops (toggling the
//     balancers they pass) and then vanish — their remaining steps leave
//     the step sequence and their process slot frees at the drop time;
//   * stuck balancers never advance their round-robin position — every
//     token leaves through the frozen port;
//   * a crashed process's later tokens are never issued.
//
// There is one interpreter body per execution model (scalar step by
// step, level-synchronous waves), both fed by the same producer of the
// step order, and each a template on a compile-time overlay policy. The
// pristine instantiation contains no overlay check at all; the faulted
// one drops doomed tokens and tells the hop which balancers are stuck (a
// stuck balancer's through count never advances). With an empty overlay
// the faulted overloads are byte-identical to the pristine ones (the
// zero-fault identity, guarded by tests/fault_test.cpp and
// tests/wave_test.cpp).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/sequential.hpp"
#include "sim/timed_execution.hpp"
#include "trace/trace.hpp"
#include "trace/sink.hpp"

namespace cn {

struct SimInterpreter;  ///< The interpreter bodies (simulator.cpp).

/// Hop sentinel of SimFaults::lost_before_hop: the token completes its
/// traversal.
inline constexpr std::uint32_t kCompletes =
    std::numeric_limits<std::uint32_t>::max();

/// Concrete fault overlay for one timed execution, fully drawn (no
/// residual randomness): applying it is deterministic. Drawn from a
/// fault::FaultPlan by fault::draw_sim_faults (fault/fault.hpp).
struct SimFaults {
  /// Indexed by plan (position in exec.plans); a plan past the end
  /// completes. kCompletes = traverses normally; h in [1, depth] =
  /// crosses hops 0..h-1 then vanishes; 0 = never issued (a crashed
  /// process's later tokens).
  std::vector<std::uint32_t> lost_before_hop;
  /// Indexed by balancer: true = toggle wedged at its initial position.
  /// A balancer past the end is not stuck, so the default overlay is
  /// empty.
  std::vector<bool> stuck;

  std::uint64_t tokens_lost = 0;       ///< Entered but vanished.
  std::uint64_t tokens_not_issued = 0; ///< Suppressed by a crash.
  std::uint64_t balancers_stuck = 0;
  std::uint64_t processes_crashed = 0;

  bool empty() const noexcept {
    return tokens_lost == 0 && tokens_not_issued == 0 &&
           balancers_stuck == 0;
  }
};

struct SimulationResult {
  /// One record per completed token, in token-plan order. Under a fault
  /// overlay, lost and never-issued tokens leave no record — exactly
  /// what an observer of the live system sees.
  Trace trace;
  std::string error;      ///< Non-empty if the execution was invalid.
  /// The full step sequence, in execution order; filled only by
  /// simulate_recorded() — the default path skips it.
  std::vector<Step> steps;

  bool ok() const noexcept { return error.empty(); }
};

/// Reusable simulation arena: the compiled routing tables, the one
/// network state every interpreter body steps, and every buffer simulate()
/// needs per call (per-process step streams, token records, per-process
/// in-flight slots). Keep one per worker thread and pass it to simulate()
/// so back-to-back trials on the same network stop reallocating.
///
/// The compiled tables are cached by network address (plus a shape
/// check): reusing one arena across *different* Network objects is safe
/// but recompiles on every switch.
class SimArena {
 public:
  SimArena();
  ~SimArena();
  SimArena(SimArena&&) noexcept;
  SimArena& operator=(SimArena&&) noexcept;
  SimArena(const SimArena&) = delete;
  SimArena& operator=(const SimArena&) = delete;

 private:
  friend struct SimInterpreter;
  struct Scratch;

  /// Compiles and caches the flat routing tables of `net` on first use,
  /// recompiling only when `net` changes, and resets the state over them.
  void acquire(const Network& net);

  const Network* net_ = nullptr;
  std::unique_ptr<const CompiledNetwork> compiled_;
  std::unique_ptr<CompiledState> state_;  ///< Over compiled_.
  std::unique_ptr<Scratch> scratch_;
};

/// Runs the timed execution. Steps are executed in increasing (time,
/// rank, token) order; each step advances its token across one node.
/// Requires a uniform network (each token crosses exactly depth+1 nodes).
SimulationResult simulate(const TimedExecution& exec);

/// Same, but reusing `arena`'s compiled tables and buffers. Identical
/// output to simulate(exec) — the arena only removes allocation work.
SimulationResult simulate(const TimedExecution& exec, SimArena& arena);

/// Slow path that additionally returns the full Step log in
/// SimulationResult::steps (the trace is identical to simulate's).
SimulationResult simulate_recorded(const TimedExecution& exec);

/// Streaming variant: emits each TokenRecord to `sink` in ISSUE order
/// (non-decreasing (first_seq, last_seq, token) — the TraceSink contract)
/// and leaves SimulationResult::trace empty. Tokens complete in seq
/// order, so records pass through an IssueWindowBuffer (first_seqs are
/// drawn from the incrementing step counter, so issue order equals open
/// order); trace memory is O(open tokens) (one first_seq slot per
/// process plus the emission window) instead of O(tokens). Emits the
/// same record set as simulate()'s trace; does not call sink.finish() —
/// the caller owns the stream lifetime.
SimulationResult simulate_stream(const TimedExecution& exec, SimArena& arena,
                                 TraceSink& sink);

/// Level-synchronous wave interpreter: byte-identical results to
/// simulate(exec, arena), computed wave-by-wave instead of step-by-step.
///
/// Every step of a timed execution is known up front (the plans fix all
/// crossing times), and both interpreters consume one producer of the
/// total order (time, rank, token, hop): a merge of per-process streams,
/// each sorted because a process's tokens never overlap in the step
/// sequence. The wave interpreter takes that order in chunks of
/// 4096 / (d + 1) steps: the merge appends each step to the bucket of its
/// hop (= level, for a uniform network), and each level then steps its
/// bucket in place as one wave through the core wave kernels
/// (core/wave.hpp). Per-balancer arrival order is preserved because a
/// balancer lives at exactly one level and each bucket keeps the merge's
/// order; sequence numbers are positions in the order, which is exactly
/// the scalar seq assignment. Executions the wave path cannot take —
/// non-uniform networks (Network::uniform()), schedules with a step-order
/// overlap (the merge finds them while building its streams, in
/// O(tokens)) — fall back to the scalar interpreter wholesale,
/// reproducing its errors (and any partial sink emission) exactly.
SimulationResult simulate_wave(const TimedExecution& exec, SimArena& arena);

/// Streaming twin of simulate_wave: same record sequence as
/// simulate_stream (the reorder buffer drains once per 4096 steps, which
/// releases records in the identical order — the minimum open first_seq
/// only ever grows), emitted in on_records batches of those drains. Does
/// not call sink.finish().
SimulationResult simulate_wave_stream(const TimedExecution& exec,
                                      SimArena& arena, TraceSink& sink);

/// The four entry points above under the fault overlay `faults`: same
/// step order, same record fields and the same streaming protocol. A
/// lost token's drop happens at the planned time of its first unexecuted
/// hop, draws no sequence number, and resolves its issue slot so it
/// holds back no later-issued record. Each wave overload is byte-identical
/// to its scalar twin, and with an empty overlay every overload is
/// byte-identical to its pristine counterpart.
SimulationResult simulate(const TimedExecution& exec, const SimFaults& faults,
                          SimArena& arena);
SimulationResult simulate_stream(const TimedExecution& exec,
                                 const SimFaults& faults, SimArena& arena,
                                 TraceSink& sink);
SimulationResult simulate_wave(const TimedExecution& exec,
                               const SimFaults& faults, SimArena& arena);
SimulationResult simulate_wave_stream(const TimedExecution& exec,
                                      const SimFaults& faults,
                                      SimArena& arena, TraceSink& sink);

}  // namespace cn
