// RunResult: the uniform product of every engine backend — a trace, its
// consistency analysis, optionally the timed execution behind it, and a
// flat map of backend-specific scalar metrics. The results pipeline
// (results.hpp) serializes this one shape to JSON and tables.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "core/topology.hpp"
#include "trace/consistency.hpp"
#include "sim/timed_execution.hpp"
#include "trace/trace.hpp"

namespace cn::engine {

/// Structured failure classification — the sweep error taxonomy. A
/// RunResult with a non-empty `error` carries exactly one of these.
enum class ErrorKind : std::uint8_t {
  kNone = 0,       ///< No error (error string is empty).
  kSpecInvalid,    ///< The RunSpec itself is unusable (bad width, bad
                   ///< backend key, inverted delay envelope, ...): no
                   ///< retry can succeed.
  kBackendError,   ///< The backend failed while running (including any
                   ///< exception it threw).
  kTimeout,        ///< The sweep watchdog abandoned the trial.
  kFaultInjected,  ///< Injected faults destroyed the trial (e.g. every
                   ///< operation was lost).
  kDeadlineExceeded,  ///< Every client request blew its per-request
                      ///< deadline (service backend): the trial produced
                      ///< no completions, but the spec is retryable —
                      ///< distinct from a watchdog kTimeout (the trial
                      ///< itself finished) and from kBackendError.
};

/// Stable taxonomy key used in JSON and reports ("spec_invalid", ...).
inline const char* error_kind_name(ErrorKind kind) noexcept {
  switch (kind) {
    case ErrorKind::kNone: return "none";
    case ErrorKind::kSpecInvalid: return "spec_invalid";
    case ErrorKind::kBackendError: return "backend_error";
    case ErrorKind::kTimeout: return "timeout";
    case ErrorKind::kFaultInjected: return "fault_injected";
    case ErrorKind::kDeadlineExceeded: return "deadline_exceeded";
  }
  return "unknown";
}

struct RunResult {
  std::string backend;     ///< Registry key that produced this result.
  Trace trace;             ///< One record per completed operation.
  ConsistencyReport report;  ///< analyze(trace); empty on error.

  /// The timed execution behind the trace, when the backend has one
  /// (simulator family, wave adversary, concurrent with record_schedule).
  /// exec.net points at the spec's network or at owned_net.
  TimedExecution exec;

  /// Backend-specific scalar outputs, e.g. "ops_per_sec", "messages",
  /// "required_ratio", "predicted_f_nl". Keys are sorted (std::map) so
  /// serialization is deterministic.
  std::map<std::string, double> metrics;

  std::string error;  ///< Non-empty when the run failed.
  /// Taxonomy of `error`; kNone iff error is empty. Backends that only
  /// set `error` get kBackendError filled in by run_backend.
  ErrorKind error_kind = ErrorKind::kNone;

  /// When the engine built the network itself (spec.net == nullptr) it
  /// lives here so exec/trace stay valid for the result's lifetime.
  std::shared_ptr<const Network> owned_net;

  /// The run's records name sinks in [0, sink_range); 0 when it has no
  /// fixed sink set (single counters, a version-1 trace file).
  std::uint32_t sink_range = 0;

  bool ok() const noexcept { return error.empty(); }

  double metric(const std::string& key, double fallback = 0.0) const {
    const auto it = metrics.find(key);
    return it == metrics.end() ? fallback : it->second;
  }
};

}  // namespace cn::engine
