// The built-in TraceSource backends: every way this repository can
// produce a trace, behind the one RunSpec/RunResult interface. Each is a
// produce function behind one TraceSource subclass; a null sink means
// collect. The first five build a timed schedule and share one path that
// interprets it.
//
//   simulator          random closed-loop workload -> timed simulator
//   sim_burst          burst workload honoring a C_g floor (LSST Cor 3.7)
//   sim_heterogeneous  hare/tortoise per-process C_L^P mix (Section 2.3)
//   wave               the three-wave adversary (Prop 5.3 / Thm 5.11)
//   optimizer          annealed schedule adversary (Open Problem 4)
//   msg                message-passing actor service (Section 2.3 remark)
//   concurrent         shared-memory network on real threads
//   service            sharded counting service with batching workers
//   fetch_inc / mcs / combining_tree / diffracting_tree
//                      baseline counters on real threads
//   replay             re-analysis of a recorded trace file
#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "baselines/combining_tree.hpp"
#include "baselines/diffracting_tree.hpp"
#include "baselines/fetch_inc_counter.hpp"
#include "baselines/mcs_counter.hpp"
#include "concurrent/concurrent_network.hpp"
#include "concurrent/harness.hpp"
#include "core/valency.hpp"
#include "engine/backend.hpp"
#include "fault/fault.hpp"
#include "msg/service.hpp"
#include "service/client.hpp"
#include "service/service.hpp"
#include "sim/adversary.hpp"
#include "sim/optimizer.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"
#include "trace/serialize.hpp"
#include "trace/sink.hpp"
#include "util/rng.hpp"
#include "util/spin_barrier.hpp"

namespace cn::engine {

namespace {

/// How a built-in backend produces one run: collecting into the result
/// when `sink` is null, otherwise emitting every completed operation to
/// `sink` in issue order and leaving the trace empty.
using Produce =
    std::function<RunResult(const RunSpec&, RunContext&, TraceSink*)>;

/// Every built-in backend: a registry name, a description and a produce
/// function, behind the three TraceSource entry points.
class BuiltinBackend final : public TraceSource {
 public:
  BuiltinBackend(std::string name, std::string description, Produce produce)
      : name_(std::move(name)),
        description_(std::move(description)),
        produce_(std::move(produce)) {}

  std::string name() const override { return name_; }
  std::string description() const override { return description_; }

  RunResult run(const RunSpec& spec) const override {
    RunContext ctx;
    return produce_(spec, ctx, nullptr);
  }

  RunResult run(const RunSpec& spec, RunContext& ctx) const override {
    return produce_(spec, ctx, nullptr);
  }

  RunResult run(const RunSpec& spec, RunContext& ctx,
                TraceSink& sink) const override {
    return produce_(spec, ctx, &sink);
  }

 private:
  std::string name_;
  std::string description_;
  Produce produce_;
};

/// Fails `out` as spec-invalid when `error` is non-empty; returns whether
/// it did.
bool reject(RunResult& out, std::string error) {
  if (error.empty()) return false;
  out.error = std::move(error);
  out.error_kind = ErrorKind::kSpecInvalid;
  return true;
}

/// Resolves the spec's network (and, as the sink range, its fan-out) into
/// `out`; null, with a spec-invalid error, when it names no usable one.
const Network* resolve(const RunSpec& spec, RunResult& out) {
  const Network* net = resolve_network(spec, out.owned_net, out.error);
  if (net == nullptr) out.error_kind = ErrorKind::kSpecInvalid;
  out.sink_range = net != nullptr ? net->fan_out() : 0;
  return net;
}

// ---------------------------------------------------------------------
// The simulated backends: each builds a timed schedule, and one path
// interprets it.
// ---------------------------------------------------------------------

/// Builds one simulated backend's schedule for `spec` on `net` and adds
/// the builder's own metrics to `out`. A spec the builder cannot use sets
/// out.error; the schedule path classes it spec-invalid.
using BuildSchedule = TimedExecution (*)(const RunSpec& spec,
                                         const Network& net, RunResult& out);

/// Records the fault overlay's damage tally as metrics.
void record_sim_fault_metrics(RunResult& out, const SimFaults& f) {
  out.metrics["fault_tokens_lost"] = static_cast<double>(f.tokens_lost);
  out.metrics["fault_tokens_not_issued"] =
      static_cast<double>(f.tokens_not_issued);
  out.metrics["fault_balancers_stuck"] =
      static_cast<double>(f.balancers_stuck);
  out.metrics["fault_processes_crashed"] =
      static_cast<double>(f.processes_crashed);
}

/// The schedule path: resolves the network, builds the schedule (an empty
/// one is spec-invalid) and interprets it once on ctx.arena with the
/// spec's interpreter (scalar, or wave with spec.wave_exec), under the
/// spec's drawn fault overlay when it asks for simulated-network faults.
/// Collects the trace and keeps the execution, or streams to `sink`.
RunResult run_schedule(const RunSpec& spec, RunContext& ctx, TraceSink* sink,
                       BuildSchedule build) {
  RunResult out;
  const Network* net = resolve(spec, out);
  if (net == nullptr) return out;
  TimedExecution exec = build(spec, *net, out);
  if (out.ok() && exec.plans.empty()) {
    out.error = "spec invalid: the schedule has no operations";
  }
  if (!out.ok()) {
    out.error_kind = ErrorKind::kSpecInvalid;
    return out;
  }

  // `overlay` is empty (pristine) or the one SimFaults argument.
  const auto interpret = [&](const auto&... overlay) {
    if (sink != nullptr) {
      return spec.wave_exec
                 ? simulate_wave_stream(exec, overlay..., ctx.arena, *sink)
                 : simulate_stream(exec, overlay..., ctx.arena, *sink);
    }
    return spec.wave_exec ? simulate_wave(exec, overlay..., ctx.arena)
                          : simulate(exec, overlay..., ctx.arena);
  };
  const bool faulted = spec.fault.sim_faults();
  SimFaults faults;
  if (faulted) {
    faults = fault::draw_sim_faults(*net, exec, spec.fault, spec.seed);
  }
  SimulationResult sim = faulted ? interpret(faults) : interpret();
  if (!sim.ok()) {
    out.error = (faulted ? "faulted simulation failed: "
                         : "simulation failed: ") +
                sim.error;
    return out;
  }
  if (faulted) record_sim_fault_metrics(out, faults);
  if (sink == nullptr) {
    out.trace = std::move(sim.trace);
    out.exec = std::move(exec);
  }
  return out;
}

/// Why a builder cannot use the wire-delay envelope [c_min, c_max]; empty
/// when it can. The wording is msg::validate's.
std::string envelope_error(double c_min, double c_max) {
  if (!std::isfinite(c_min) || !std::isfinite(c_max)) {
    return "spec invalid: non-finite latency";
  }
  if (c_min > c_max) {
    return "spec invalid: c_min > c_max (inverted latency envelope)";
  }
  if (c_min < 0.0) return "spec invalid: negative latency";
  return {};
}

/// Why a builder cannot use a local-delay (C_L) bound; empty when it can.
/// The wording is sim_heterogeneous's.
std::string local_delay_error(double delay) {
  if (!std::isfinite(delay)) return "spec invalid: non-finite local delay";
  if (delay < 0.0) return "spec invalid: negative local delay";
  return {};
}

/// simulator: the randomized closed-loop workload generator.
TimedExecution build_simulator(const RunSpec& spec, const Network& net,
                               RunResult& out) {
  out.error = envelope_error(spec.c_min, spec.c_max);
  if (out.ok()) out.error = local_delay_error(spec.local_delay_min);
  // A negative local_delay_max means "unset"; anything else is a bound.
  if (out.ok() && !(spec.local_delay_max < 0.0)) {
    out.error = local_delay_error(spec.local_delay_max);
  }
  if (!out.ok()) return {};
  WorkloadSpec wl;
  wl.processes = spec.processes;
  wl.tokens_per_process = spec.ops_per_process;
  wl.c_min = spec.c_min;
  wl.c_max = spec.c_max;
  wl.local_delay_min = spec.local_delay_min;
  wl.local_delay_max = spec.local_delay_max >= 0.0
                           ? spec.local_delay_max
                           : spec.local_delay_min + 2.0;
  wl.extreme_delays = spec.extreme_delays;
  Xoshiro256 rng(spec.seed);
  return generate_workload(net, wl, rng);
}

/// sim_burst: bursts separated by a global-delay floor (pure C_g probe).
TimedExecution build_burst(const RunSpec& spec, const Network& net,
                           RunResult& out) {
  out.error = envelope_error(spec.c_min, spec.c_max);
  if (!out.ok()) return {};
  Xoshiro256 rng(spec.seed);
  TimedExecution exec;
  exec.net = &net;
  const std::uint32_t d = net.depth();
  const double extreme[2] = {spec.c_max, spec.c_min};
  TokenId next = 0;
  double t0 = 0.0;
  for (std::uint32_t b = 0; b < spec.bursts; ++b) {
    double latest_exit = t0;
    for (std::uint32_t i = 0; i < spec.burst_size; ++i) {
      // All distinct processes: pure C_g probe.
      const std::span<double> row = exec.add({.token = next,
                                              .process = next,
                                              .source = i % net.fan_in(),
                                              .rank = rng.unit()});
      row[0] = t0 + rng.uniform(0.0, 0.25 * spec.c_min);
      for (std::uint32_t h = 1; h <= d; ++h) {
        row[h] = row[h - 1] + extreme[rng.below(2)];
      }
      latest_exit = std::max(latest_exit, row[d]);
      ++next;
    }
    t0 = latest_exit + spec.burst_gap;
  }
  return exec;
}

/// sim_heterogeneous: hare (process 0) vs tortoise local delays.
TimedExecution build_heterogeneous(const RunSpec& spec, const Network& net,
                                   RunResult& out) {
  out.error = envelope_error(spec.c_min, spec.c_max);
  // A process's next operation enters its local delay after the last one
  // exits. A non-finite delay would end the loop below after one
  // operation (or, for the horizon, never), a negative one overlaps them
  // (Section 2.2, rule 3), and with no delay at all the loop would never
  // reach the horizon.
  if (out.ok() && !(std::isfinite(spec.hare_delay) &&
                    std::isfinite(spec.tortoise_delay) &&
                    std::isfinite(spec.horizon))) {
    out.error = "spec invalid: non-finite local delay or horizon";
  }
  const double min_local = std::min(spec.hare_delay, spec.tortoise_delay);
  if (out.ok() && min_local < 0.0) {
    out.error = "spec invalid: negative local delay";
  }
  if (out.ok() && net.depth() * spec.c_max + min_local <= 0.0) {
    out.error = "spec invalid: operations take no time (c_max and a local "
                "delay are 0)";
  }
  if (!out.ok()) return {};
  Xoshiro256 rng(spec.seed);
  TimedExecution exec;
  exec.net = &net;
  const std::uint32_t d = net.depth();
  const double extreme[2] = {spec.c_max, spec.c_min};
  TokenId next = 0;
  for (ProcessId p = 0; p < net.fan_in(); ++p) {
    const double local = p == 0 ? spec.hare_delay : spec.tortoise_delay;
    double t = 0.0;
    std::uint32_t k = 0;
    while (t < spec.horizon) {
      const std::span<double> row = exec.add({.token = next++,
                                              .process = p,
                                              .source = p,
                                              .rank = k + rng.unit() * 0.9});
      row[0] = t;
      for (std::uint32_t h = 1; h <= d; ++h) {
        row[h] = row[h - 1] + extreme[rng.below(2)];
      }
      t = row[d] + local;
      ++k;
    }
  }
  return exec;
}

/// The heterogeneous backend's metrics over its record stream: hare and
/// other operation counts and per-process SC flags. Each process's
/// records arrive in its issue order, so a per-process prefix max over
/// the stream is the batch is_sequentially_consistent_for check.
class HetMetrics final : public TraceSink {
 public:
  void on_record(const TokenRecord& rec) override {
    (rec.process == 0 ? hare_ops_ : other_ops_) += 1;
    if (rec.process >= procs_.size()) procs_.resize(rec.process + 1);
    Proc& p = procs_[rec.process];
    if (p.any && p.prefix_max > rec.value) p.non_sc = true;
    p.prefix_max = p.any ? std::max(p.prefix_max, rec.value) : rec.value;
    p.any = true;
  }

  void report(RunResult& out) const {
    bool others_sc = true;
    for (std::size_t p = 1; p < procs_.size(); ++p) {
      others_sc &= !procs_[p].non_sc;
    }
    out.metrics["hare_ops"] = static_cast<double>(hare_ops_);
    out.metrics["other_ops"] = static_cast<double>(other_ops_);
    out.metrics["hare_sc"] = procs_.empty() || !procs_[0].non_sc ? 1.0 : 0.0;
    out.metrics["others_sc"] = others_sc ? 1.0 : 0.0;
  }

 private:
  struct Proc {
    bool any = false;
    bool non_sc = false;
    Value prefix_max = 0;
  };
  std::uint64_t hare_ops_ = 0;
  std::uint64_t other_ops_ = 0;
  std::vector<Proc> procs_;
};

/// sim_heterogeneous: the schedule path, with HetMetrics teed into the
/// stream, or fed the collected trace in issue order.
RunResult produce_heterogeneous(const RunSpec& spec, RunContext& ctx,
                                TraceSink* sink) {
  HetMetrics het;
  std::optional<TeeSink> tee;
  RunResult out = run_schedule(
      spec, ctx, sink != nullptr ? &tee.emplace(*sink, het) : nullptr,
      build_heterogeneous);
  if (!out.ok()) return out;
  if (sink == nullptr) feed_issue_order(out.trace, het);
  het.report(out);
  return out;
}

/// wave: the paper's three-wave adversarial execution.
TimedExecution build_wave(const RunSpec& spec, const Network& net,
                          RunResult& out) {
  // wave_c_max == 0 picks c_max from the required ratio.
  out.error = envelope_error(
      spec.c_min, spec.wave_c_max == 0.0 ? spec.c_min : spec.wave_c_max);
  if (!out.ok()) return {};
  const SplitAnalysis split(net);
  if (!split.applicable()) {
    out.error = "network has no split structure";
    return {};
  }
  WaveSpec ws;
  ws.ell = spec.ell;
  ws.c_min = spec.c_min;
  ws.c_max = spec.wave_c_max;
  ws.distinct_processes = spec.distinct_processes;
  ws.wave3_extra_delay = spec.wave3_extra_delay;
  WaveResult wave = build_wave_execution(net, split, ws);
  if (!wave.ok()) {
    out.error = std::move(wave.error);
    return {};
  }
  out.metrics["required_ratio"] = wave.required_ratio;
  out.metrics["ratio_used"] = wave.timing.ratio();
  out.metrics["predicted_f_nl"] = wave.predicted_f_nl;
  out.metrics["predicted_f_nsc"] = wave.predicted_f_nsc;
  out.metrics["wave1_size"] = static_cast<double>(wave.wave1_size);
  out.metrics["wave2_size"] = static_cast<double>(wave.wave2_size);
  out.metrics["wave3_size"] = static_cast<double>(wave.wave3_size);
  out.metrics["race_depth"] = static_cast<double>(split.race_depth(spec.ell));
  return std::move(wave.exec);
}

/// optimizer: annealed schedule adversary; the best schedule found runs.
TimedExecution build_optimizer(const RunSpec& spec, const Network& net,
                               RunResult& out) {
  out.error = envelope_error(spec.c_min, spec.c_max);
  if (out.ok()) out.error = local_delay_error(spec.local_delay_min);
  if (!out.ok()) return {};
  OptimizerSpec os;
  os.processes = spec.processes;
  os.tokens_per_process = spec.ops_per_process;
  os.c_min = spec.c_min;
  os.c_max = spec.c_max;
  os.local_delay_min = spec.local_delay_min;
  os.iterations = spec.opt_iterations;
  os.restarts = spec.opt_restarts;
  os.seed = spec.seed;
  OptimizerResult opt = optimize_schedule(net, os);
  out.metrics["best_fraction"] = opt.best_fraction;
  out.metrics["evaluations"] = static_cast<double>(opt.evaluations);
  return std::move(opt.best);
}

/// The produce function of a simulated backend.
Produce scheduled(BuildSchedule build) {
  return [build](const RunSpec& spec, RunContext& ctx, TraceSink* sink) {
    return run_schedule(spec, ctx, sink, build);
  };
}

// ---------------------------------------------------------------------
// msg: the message-passing actor service.
// ---------------------------------------------------------------------
RunResult produce_msg(const RunSpec& spec, RunContext& ctx, TraceSink* sink) {
  // The msg kernel streams natively unless message duplication is on: a
  // duplicated delivery re-counts a token after its record was emitted,
  // which only the collecting path can express.
  if (sink != nullptr && spec.fault.enabled &&
      spec.fault.p_msg_duplicate > 0.0) {
    return stream_collected(produce_msg(spec, ctx, nullptr), *sink);
  }
  RunResult out;
  const Network* net = resolve(spec, out);
  if (net == nullptr) return out;
  msg::MsgRunSpec ms;
  ms.processes = spec.processes;
  ms.ops_per_process = spec.ops_per_process;
  ms.c_min = spec.c_min;
  ms.c_max = spec.c_max;
  ms.extreme_latencies = spec.extreme_delays;
  ms.local_delay = spec.local_delay_min;
  ms.seed = spec.seed;
  ms.slow_process_zero = spec.slow_process_zero;
  ms.fault = spec.fault;
  if (reject(out, msg::validate(ms))) return out;
  msg::MsgRunResult mr = sink != nullptr
                             ? run_message_passing(*net, ms, *sink)
                             : run_message_passing(*net, ms);
  if (!mr.ok()) {
    out.error = mr.error;
    return out;
  }
  out.trace = std::move(mr.trace);
  out.metrics["messages"] = static_cast<double>(mr.messages);
  out.metrics["sim_time"] = mr.sim_time;
  if (spec.fault.enabled) {
    out.metrics["fault_tokens_lost"] = static_cast<double>(mr.tokens_lost);
    out.metrics["fault_dup_deliveries"] =
        static_cast<double>(mr.dup_deliveries);
    out.metrics["fault_delayed_messages"] =
        static_cast<double>(mr.delayed_messages);
    out.metrics["fault_clients_crashed"] =
        static_cast<double>(mr.clients_crashed);
  }
  return out;
}

// ---------------------------------------------------------------------
// Real threads: the shared-memory network and the baseline counters, all
// recorded closed loops of concurrent/harness.cpp. In unrecorded mode
// they measure bare throughput instead (no faults, no clocks per op).
// ---------------------------------------------------------------------

/// Runs one real-thread backend into `out`. The spec's real-thread
/// section is checked up front in both modes. Recorded runs call
/// `recorded(cs)` for the harness's loop; unrecorded ones call
/// `throughput()` for operations per second. `lost_metric` names the tally
/// of operations a fault dropped after they took their steps.
template <typename Recorded, typename Throughput>
void run_real_threads(RunResult& out, const RunSpec& spec,
                      const char* lost_metric, Recorded&& recorded,
                      Throughput&& throughput) {
  ConcurrentRunSpec cs;
  cs.threads = spec.threads;
  cs.ops_per_thread = spec.ops_per_thread;
  cs.hop_delay_min_ns = spec.hop_delay_min_ns;
  cs.hop_delay_max_ns = spec.hop_delay_max_ns;
  cs.local_delay_ns = spec.local_delay_ns;
  cs.seed = spec.seed;
  cs.record_schedule = spec.record_schedule;
  cs.fault = spec.fault;
  if (reject(out, validate(cs))) return;
  if (!spec.record_trace) {
    out.metrics["ops_per_sec"] = throughput();
    out.metrics["total_ops"] =
        static_cast<double>(spec.threads) * spec.ops_per_thread;
    return;
  }
  ConcurrentRunResult cr = recorded(cs);
  if (!cr.ok()) {
    out.error = std::move(cr.error);
    return;
  }
  out.trace = std::move(cr.trace);
  out.exec = std::move(cr.schedule);
  out.metrics["total_ops"] = static_cast<double>(cr.total_ops);
  out.metrics["elapsed_sec"] = cr.elapsed_sec;
  out.metrics["ops_per_sec"] = cr.ops_per_sec;
  if (spec.fault.enabled) {
    out.metrics["fault_stalls"] = static_cast<double>(cr.stalls);
    out.metrics[lost_metric] = static_cast<double>(cr.tokens_abandoned);
    out.metrics["fault_threads_crashed"] =
        static_cast<double>(cr.threads_crashed);
  }
}

RunResult produce_concurrent(const RunSpec& spec, RunContext&,
                             TraceSink* sink) {
  RunResult out;
  const Network* resolved = resolve(spec, out);
  if (resolved == nullptr) return out;
  ConcurrentNetwork net(*resolved);
  const std::uint32_t fan_in = resolved->fan_in();
  run_real_threads(
      out, spec, "fault_tokens_abandoned",
      [&](const ConcurrentRunSpec& cs) { return run_recorded(net, cs, sink); },
      [&] {
        if (spec.batch_size <= 1) {
          return run_throughput(spec.threads, spec.ops_per_thread,
                                [&net, fan_in](std::uint32_t th) {
                                  return net.increment(th % fan_in);
                                });
        }
        // Batched traversal: ops_per_thread still counts TOKENS, carried
        // in chunks of batch_size per increment_batch call.
        out.metrics["batch_size"] = static_cast<double>(spec.batch_size);
        return run_batch_throughput(
            spec.threads, spec.ops_per_thread, spec.batch_size,
            [&net, fan_in](std::uint32_t th, std::uint64_t* values,
                           std::uint32_t k) {
              net.increment_batch(th % fan_in, k, values);
            });
      });
  return out;
}

/// A baseline counter for one run: `next(thread)` hands out a fresh
/// value; `metrics`, when set, reports the counter's own tallies after
/// the run.
struct Counter {
  std::function<std::uint64_t(std::uint32_t)> next;
  std::function<void(RunResult&)> metrics;
};

/// The produce function of every baseline counter: `make(spec)` builds a
/// fresh counter per run. Values lost to an abandon fault report as
/// fault_values_lost.
Produce counter_backend(Counter (*make)(const RunSpec&)) {
  return [make](const RunSpec& spec, RunContext&, TraceSink* sink) {
    RunResult out;
    const Counter counter = make(spec);
    run_real_threads(
        out, spec, "fault_values_lost",
        [&](const ConcurrentRunSpec& cs) {
          return run_recorded_counter(counter.next, cs, sink);
        },
        [&] {
          return run_throughput(spec.threads, spec.ops_per_thread,
                                counter.next);
        });
    if (out.ok() && counter.metrics) counter.metrics(out);
    return out;
  };
}

Counter make_fetch_inc(const RunSpec&) {
  auto c = std::make_shared<FetchIncCounter>();
  return {[c](std::uint32_t) { return c->next(); }, nullptr};
}

Counter make_mcs(const RunSpec&) {
  auto c = std::make_shared<McsCounter>();
  return {[c](std::uint32_t th) { return c->next(th); }, nullptr};
}

Counter make_combining_tree(const RunSpec& spec) {
  std::uint32_t capacity = 2;
  while (capacity < spec.threads) capacity *= 2;
  auto c = std::make_shared<CombiningTree>(std::max(capacity, spec.width));
  return {[c](std::uint32_t th) { return c->next(th); }, nullptr};
}

Counter make_diffracting_tree(const RunSpec& spec) {
  auto c = std::make_shared<DiffractingTree>(spec.width);
  return {[c](std::uint32_t th) { return c->next(th); },
          [c](RunResult& out) {
            out.metrics["diffracted"] =
                static_cast<double>(c->total_diffracted());
          }};
}

using Clock = std::chrono::steady_clock;

std::uint64_t to_ns(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------
// service: the sharded counting service (src/service) driven by
// closed-loop clients. spec.threads clients each submit ops_per_thread
// requests (at most one outstanding apiece, so the bounded queues never
// reject in this backend) and spin on their completion slot;
// spec.service.shards workers drain per-shard queues and shepherd
// adaptive batches through their shard's network. Recording emits the
// service's live TokenRecord stream — global values, residue-class
// sinks — into the engine sink, so the streaming analyzers attach to
// the service exactly as to any other backend.
// ---------------------------------------------------------------------
/// The clients' submit policy: a shed or queue-full refusal is retried
/// until the service takes it, with no deadline, so every op completes.
constexpr service::SubmitPolicy kServicePolicy{.max_retries = 0};

RunResult produce_service(const RunSpec& spec, RunContext&, TraceSink* sink) {
  RunResult out;
  const Network* net = resolve(spec, out);
  if (net == nullptr) return out;
  if (spec.threads == 0 || spec.ops_per_thread == 0) {
    reject(out, spec.threads == 0 ? "spec invalid: threads == 0"
                                  : "spec invalid: ops_per_thread == 0");
    return out;
  }
  // spec.service is the service's configuration; the engine supplies
  // only the four fields every backend takes from the common spec.
  service::ServiceConfig cfg = spec.service;
  cfg.net = net;
  cfg.fault = spec.fault;
  cfg.seed = spec.seed;
  cfg.record = spec.record_trace;
  if (reject(out, service::validate(cfg))) return out;
  // A classic shard's records carry the flattened sink s * w + u; an
  // elastic epoch's carry the full network's sinks.
  if (!cfg.elastic.enabled) out.sink_range *= cfg.shards;
  // Collecting mode still records through a sink; the service only
  // knows the streaming interface.
  CollectSink collect;
  TraceSink* out_sink =
      cfg.record ? (sink != nullptr ? sink : &collect) : nullptr;
  service::CountingService svc(cfg, out_sink);
  svc.start();
  // Closed-loop PolicyClients: a refusal backs off (seeded) and
  // retries, and a request queued to a crashed shard completes once the
  // supervisor respawns its worker.
  SpinBarrier barrier(spec.threads);
  // The clients live outside their threads: their stats are summed
  // after the run.
  std::vector<std::unique_ptr<service::PolicyClient>> client_objs;
  client_objs.reserve(spec.threads);
  for (std::uint32_t t = 0; t < spec.threads; ++t) {
    client_objs.push_back(std::make_unique<service::PolicyClient>(
        svc, kServicePolicy, t, spec.seed));
  }
  std::vector<std::thread> clients;
  clients.reserve(spec.threads);
  const std::uint32_t client_batch =
      std::max<std::uint32_t>(1, spec.service_client_batch);
  const auto t_start = Clock::now();
  for (std::uint32_t t = 0; t < spec.threads; ++t) {
    clients.emplace_back([&, t] {
      service::PolicyClient& client = *client_objs[t];
      barrier.arrive_and_wait();
      // Batched clients issue ceil(ops / batch) submit_batch calls so
      // single and batched runs push the same request count through
      // the same residue arithmetic — only the ingress shape differs.
      for (std::uint64_t k = 0; k < spec.ops_per_thread;
           k += client_batch) {
        const auto b = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(client_batch,
                                    spec.ops_per_thread - k));
        if (b == 1) {
          client.submit(to_ns(Clock::now()));
        } else {
          client.submit_batch(to_ns(Clock::now()), b);
        }
        if (spec.local_delay_ns > 0) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(spec.local_delay_ns));
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  svc.stop();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t_start).count();
  const service::ServiceStats& st = svc.stats();
  if (cfg.record && sink == nullptr) out.trace = collect.take();
  std::uint64_t retries = 0;
  for (const auto& c : client_objs) retries += c->stats().retries;
  const service::ResidueAudit audit = svc.audit();
  out.metrics["total_ops"] = static_cast<double>(st.completed);
  out.metrics["elapsed_sec"] = elapsed;
  out.metrics["ops_per_sec"] =
      elapsed > 0 ? static_cast<double>(st.completed) / elapsed : 0.0;
  // The final epoch's width: elastic runs ignore cfg.shards.
  out.metrics["shards"] = static_cast<double>(svc.shards());
  out.metrics["rejected"] = static_cast<double>(st.rejected);
  out.metrics["batches"] = static_cast<double>(st.batches);
  out.metrics["mean_batch"] = st.mean_batch;
  out.metrics["max_batch"] = static_cast<double>(st.max_batch_seen);
  out.metrics["p50_us"] =
      static_cast<double>(st.latency.p50()) / 1000.0;
  out.metrics["p99_us"] =
      static_cast<double>(st.latency.p99()) / 1000.0;
  out.metrics["p999_us"] =
      static_cast<double>(st.latency.p999()) / 1000.0;
  // Self-healing telemetry: client retries, recovery counters, and
  // the quiescent residue audit ride into RunResult so sweeps can
  // gate on them like any other metric.
  out.metrics["retries"] = static_cast<double>(retries);
  out.metrics["shed"] = static_cast<double>(st.shed);
  out.metrics["crashes"] = static_cast<double>(st.crashes);
  out.metrics["respawns"] = static_cast<double>(st.respawns);
  out.metrics["crash_lost"] = static_cast<double>(st.crash_lost);
  out.metrics["abandoned"] = static_cast<double>(st.abandoned);
  out.metrics["wedge_detections"] =
      static_cast<double>(st.wedge_detections);
  out.metrics["residue_holes"] = static_cast<double>(audit.holes);
  out.metrics["audit_exact"] = audit.exact ? 1.0 : 0.0;
  out.metrics["audit_gap_free"] = audit.gap_free ? 1.0 : 0.0;
  // Ingress shape: how much the batched path actually amortized.
  out.metrics["client_batch"] = static_cast<double>(client_batch);
  out.metrics["ingress_batches"] =
      static_cast<double>(st.ingress_batches);
  out.metrics["ingress_cells"] =
      static_cast<double>(st.ingress_cells);
  if (spec.fault.enabled) {
    out.metrics["fault_stalls"] = static_cast<double>(st.stalls);
    out.metrics["fault_tokens_abandoned"] =
        static_cast<double>(st.dropped);
  }
  return out;
}

// ---------------------------------------------------------------------
// replay: re-analyzes a trace recorded with spec.record_path /
// bench_sweep --record. The file (trace/serialize.hpp format) stands in
// for the live producer; everything downstream — batch analyze or the
// streaming checker — treats it like any other backend's records.
// ---------------------------------------------------------------------
RunResult produce_replay(const RunSpec& spec, RunContext&, TraceSink* sink) {
  RunResult out;
  if (spec.replay_path.empty()) {
    reject(out, "replay backend requires replay_path");
    return out;
  }
  ReadTraceResult rd = read_trace_file(spec.replay_path);
  if (!rd.ok()) {
    reject(out, "replay failed: " + rd.error);
    return out;
  }
  out.trace = std::move(rd.trace);
  out.sink_range = rd.sink_range;
  out.metrics["replayed_records"] = static_cast<double>(out.trace.size());
  if (sink != nullptr) return stream_collected(std::move(out), *sink);
  return out;
}

}  // namespace

void register_builtin_backends() {
  const auto add = [](const std::string& name, const std::string& description,
                      Produce produce) {
    register_backend(name, [=] {
      return std::make_unique<BuiltinBackend>(name, description, produce);
    });
  };
  add("simulator", "random closed-loop workload through the timed simulator",
      scheduled(build_simulator));
  add("sim_burst", "burst workload honoring a global-delay (C_g) floor",
      scheduled(build_burst));
  add("sim_heterogeneous",
      "per-process local delays: hare process 0 vs paced tortoises",
      produce_heterogeneous);
  add("wave", "three-wave adversary at a split level (Prop 5.3 / Thm 5.11)",
      scheduled(build_wave));
  add("optimizer",
      "annealed schedule search maximizing an inconsistency fraction",
      scheduled(build_optimizer));
  add("msg", "message-passing actor service with latencies in [c_min, c_max]",
      produce_msg);
  add("concurrent", "shared-memory counting network driven by real threads",
      produce_concurrent);
  add("service", "sharded counting service with batching workers",
      produce_service);
  add("fetch_inc", "single shared fetch&increment counter",
      counter_backend(make_fetch_inc));
  add("mcs", "MCS queue-lock protected counter", counter_backend(make_mcs));
  add("combining_tree", "software combining tree counter",
      counter_backend(make_combining_tree));
  add("diffracting_tree", "diffracting tree counter with prism exchangers",
      counter_backend(make_diffracting_tree));
  add("replay", "re-analyzes a recorded trace file (RunSpec::replay_path)",
      produce_replay);
}

}  // namespace cn::engine
