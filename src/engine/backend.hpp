// TraceSource: the one interface every trace producer implements, and
// the string-keyed registry that makes each of them a plug-in. Adding a
// backend is: derive from TraceSource, call register_backend (from your
// own translation unit), and every sweep driver, bench binary, and test
// can reach it by name. The built-in backends (backends.cpp) are one
// private subclass each holding a produce function; a null sink means
// collect.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/run_result.hpp"
#include "engine/run_spec.hpp"
#include "fault/fault.hpp"
#include "sim/simulator.hpp"
#include "trace/sink.hpp"
#include "trace/streaming.hpp"

namespace cn::engine {

/// Per-worker reusable resources threaded through run_backend: one
/// simulation arena (compiled routing tables + state buffers) that
/// repeated trials on the same network share instead of reallocating,
/// plus the streaming-analysis sinks (consistency checker + degradation
/// accumulator) reused across trials when spec.keep_trace is false.
/// One RunContext per thread — it is not synchronized.
struct RunContext {
  SimArena arena;
  StreamingConsistency checker;
  fault::DegradationAccumulator degradation;
};

/// Hands a collected run to `sink`: feeds its trace in issue order (see
/// feed_issue_order) and drops the materialized trace and execution. A
/// failed run passes through unchanged. TraceSource's default streaming
/// entry point ends with it, as does any producer that can only collect.
RunResult stream_collected(RunResult out, TraceSink& sink);

/// A named producer of traces. Implementations must be stateless (or
/// internally synchronized): the sweeper calls run() concurrently from
/// many threads on the same instance. Per-call mutable scratch lives in
/// the caller-owned RunContext.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  virtual std::string name() const = 0;

  /// One-line description shown by list_backends-style tooling.
  virtual std::string description() const { return {}; }

  /// Produces one trace for the given spec. Must be deterministic per
  /// spec.seed for simulation backends; real-thread backends are
  /// deterministic only in shape. On failure, returns a RunResult whose
  /// error is non-empty — never throws for invalid specs.
  virtual RunResult run(const RunSpec& spec) const = 0;

  /// Arena-aware entry point. Backends that simulate override this to
  /// reuse ctx.arena across calls; the default ignores the context. The
  /// result must be identical to run(spec) — the context only removes
  /// allocation work.
  virtual RunResult run(const RunSpec& spec, RunContext& ctx) const {
    (void)ctx;
    return run(spec);
  }

  /// Streaming entry point: emit every completed operation to `sink` in
  /// ISSUE order (non-decreasing (first_seq, last_seq, token) — the
  /// TraceSink contract) instead of (or in addition to) RunResult::trace,
  /// and leave RunResult::trace empty. Must emit the exact multiset of
  /// records the collecting run(spec, ctx) would have produced; must NOT
  /// call sink.finish() (run_backend owns stream termination). Native
  /// producers emit live in O(open operations) memory (see
  /// IssueWindowBuffer); the default collects via run(spec, ctx) and
  /// hands the result to stream_collected.
  virtual RunResult run(const RunSpec& spec, RunContext& ctx,
                        TraceSink& sink) const {
    return stream_collected(run(spec, ctx), sink);
  }
};

using BackendFactory = std::function<std::unique_ptr<TraceSource>()>;

/// Registers a backend under `key`. Returns false (and leaves the
/// registry unchanged) if the key is already taken.
bool register_backend(const std::string& key, BackendFactory factory);

/// Looks a backend up by key; nullptr when absent. The returned pointer
/// stays valid for the program's lifetime.
const TraceSource* find_backend(const std::string& key);

/// All registered keys, sorted.
std::vector<std::string> backend_names();

/// Resolves spec.backend in the registry, runs it, and fills in the
/// consistency report (analyze on the produced trace) unless the backend
/// already did. Unknown backend keys yield an error result.
///
/// Streaming mode (spec.keep_trace == false, spec.record_path empty):
/// the backend runs against the context's StreamingConsistency sink
/// (teed into the degradation accumulator when spec.fault.enabled), the
/// report is computed incrementally, and RunResult::trace stays empty.
/// With a non-empty spec.record_path the run collects normally and the
/// trace is additionally written to that file (trace/serialize.hpp).
RunResult run_backend(const RunSpec& spec);

/// Same, reusing the caller's per-worker context (see RunContext). The
/// sweeper calls this with one context per worker thread.
RunResult run_backend(const RunSpec& spec, RunContext& ctx);

/// Resolves the spec's network: spec.net when non-null, otherwise a
/// freshly constructed network (by spec.network/width) returned
/// through `owned`. Returns nullptr and sets `error` when the name is
/// unknown. Backends should use this instead of reading spec.net.
const Network* resolve_network(const RunSpec& spec,
                               std::shared_ptr<const Network>& owned,
                               std::string& error);

/// Registers the built-in backends (simulator, sim_burst,
/// sim_heterogeneous, wave, msg, concurrent, service, fetch_inc, mcs,
/// combining_tree, diffracting_tree, optimizer, replay). Called lazily
/// by the registry itself; safe to call repeatedly.
void register_builtin_backends();

}  // namespace cn::engine
