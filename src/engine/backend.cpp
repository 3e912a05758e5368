#include "engine/backend.hpp"

#include <map>
#include <mutex>

#include "core/constructions.hpp"
#include "trace/consistency.hpp"
#include "trace/serialize.hpp"
#include "util/bits.hpp"

namespace cn::engine {

namespace {

struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<TraceSource>> backends;
};

Registry& registry() {
  // Intentionally leaked: a trial abandoned by the sweep watchdog may
  // still be blocked inside a backend at process exit, and an exit-time
  // destructor would delete the backend out from under it. An immortal
  // registry makes shutdown order a non-event.
  static Registry* r = new Registry;
  return *r;
}

std::once_flag builtin_once;

void ensure_builtins() {
  // register_builtin_backends lives in backends.cpp; calling it here
  // keeps that translation unit (and its self-registrations) linked even
  // from a static library.
  std::call_once(builtin_once, register_builtin_backends);
}

}  // namespace

RunResult stream_collected(RunResult out, TraceSink& sink) {
  if (!out.ok()) return out;
  feed_issue_order(out.trace, sink);
  out.trace = Trace{};
  out.exec = TimedExecution{};
  return out;
}

bool register_backend(const std::string& key, BackendFactory factory) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (r.backends.count(key) > 0) return false;
  r.backends.emplace(key, factory());
  return true;
}

const TraceSource* find_backend(const std::string& key) {
  ensure_builtins();
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.backends.find(key);
  return it == r.backends.end() ? nullptr : it->second.get();
}

std::vector<std::string> backend_names() {
  ensure_builtins();
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::string> names;
  names.reserve(r.backends.size());
  for (const auto& [key, _] : r.backends) names.push_back(key);
  return names;
}

const Network* resolve_network(const RunSpec& spec,
                               std::shared_ptr<const Network>& owned,
                               std::string& error) {
  if (spec.net != nullptr) return spec.net;
  if (spec.width < 2 || !is_pow2(spec.width)) {
    error = "width must be a power of two >= 2";
    return nullptr;
  }
  if (spec.network == "bitonic") {
    owned = std::make_shared<Network>(make_bitonic(spec.width));
  } else if (spec.network == "periodic") {
    owned = std::make_shared<Network>(make_periodic(spec.width));
  } else if (spec.network == "counting_tree") {
    owned = std::make_shared<Network>(make_counting_tree(spec.width));
  } else {
    error = "unknown network '" + spec.network + "'";
    return nullptr;
  }
  return owned.get();
}

RunResult run_backend(const RunSpec& spec, RunContext& ctx) {
  const TraceSource* src = find_backend(spec.backend);
  if (src == nullptr) {
    RunResult out;
    out.backend = spec.backend;
    // Name the registry in the error: a sweep config typo surfaces the
    // full menu instead of a dead-end string.
    out.error = "unknown backend '" + spec.backend + "' (registered:";
    for (const std::string& name : backend_names()) {
      out.error += " " + name;
    }
    out.error += ")";
    out.error_kind = ErrorKind::kSpecInvalid;
    return out;
  }
  // Streaming mode: no materialized trace, incremental analysis. A
  // recorded run always collects (the file IS the materialized trace).
  const bool streaming = !spec.keep_trace && spec.record_path.empty();
  RunResult out;
  // A backend that throws (instead of returning an error result) must
  // not take down a whole sweep: catch per-run and fold the exception
  // into the error taxonomy. In streaming mode this also covers the
  // checker's arrival-order contract violations.
  try {
    if (streaming) {
      ctx.checker.reset();
      if (spec.fault.enabled) {
        ctx.degradation.reset();
        TeeSink tee(ctx.checker, ctx.degradation);
        out = src->run(spec, ctx, tee);
      } else {
        out = src->run(spec, ctx, ctx.checker);
      }
      out.backend = spec.backend;
      if (out.ok()) {
        ctx.checker.finish();
        out.report = ctx.checker.report();
      }
    } else {
      out = src->run(spec, ctx);
      out.backend = spec.backend;
      if (out.ok() && out.report.total == 0 && !out.trace.empty()) {
        out.report = analyze(out.trace);
      }
    }
    // Fault-injected runs get the degradation report appended (and an
    // all-operations-lost run is classified as a fault casualty, not a
    // silent empty success). Gated on `enabled`, not `active()`, so a
    // p=0 point of a degradation curve still reports its zero rates —
    // while default (disabled) runs emit byte-identical metrics. It runs
    // inside the try, so whatever a replayed record does to the analysis
    // comes back as an error result.
    if (out.ok() && spec.fault.enabled && spec.record_trace) {
      const std::uint64_t completed =
          streaming ? ctx.degradation.records() : out.trace.size();
      if (completed == 0) {
        out.error = "fault injection removed every completed operation";
        out.error_kind = ErrorKind::kFaultInjected;
      } else {
        const fault::Degradation deg =
            streaming ? ctx.degradation.result(out.sink_range)
                      : fault::degradation(out.trace, out.sink_range);
        out.metrics["counting_violation"] = deg.counting_violation;
        out.metrics["smoothness_gap"] = deg.smoothness_gap;
        out.metrics["smoothness_violation"] = deg.smoothness_violation;
        const bool any = deg.counting_violation > 0.0 ||
                         deg.smoothness_violation > 0.0 ||
                         !out.report.linearizable() ||
                         !out.report.sequentially_consistent();
        out.metrics["any_violation"] = any ? 1.0 : 0.0;
      }
    }
  } catch (const std::exception& e) {
    out = RunResult{};
    out.backend = spec.backend;
    out.error = std::string("backend threw: ") + e.what();
    out.error_kind = ErrorKind::kBackendError;
  } catch (...) {
    out = RunResult{};
    out.backend = spec.backend;
    out.error = "backend threw a non-standard exception";
    out.error_kind = ErrorKind::kBackendError;
  }
  // Normalize the taxonomy: errors without an explicit class are backend
  // failures; successful runs carry no class.
  if (!out.ok() && out.error_kind == ErrorKind::kNone) {
    out.error_kind = ErrorKind::kBackendError;
  }
  if (out.ok()) out.error_kind = ErrorKind::kNone;

  // Recorded runs persist the collected trace; a failed write is a
  // backend failure, not a silent success with a missing file.
  if (out.ok() && !spec.record_path.empty()) {
    if (std::string werr =
            write_trace_file(spec.record_path, out.trace, out.sink_range);
        !werr.empty()) {
      out.error = "trace record failed: " + werr;
      out.error_kind = ErrorKind::kBackendError;
    } else if (!spec.keep_trace) {
      out.trace = Trace{};
      out.exec = TimedExecution{};
    }
  }
  return out;
}

RunResult run_backend(const RunSpec& spec) {
  RunContext ctx;
  return run_backend(spec, ctx);
}

}  // namespace cn::engine
