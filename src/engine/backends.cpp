// The built-in TraceSource backends: every way this repository can
// produce a trace, behind the one RunSpec/RunResult interface.
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
#include <memory>
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

/// Shared scaffolding: resolve the network, bail out with an error
/// result when that fails.
struct Resolved {
  RunResult result;
  const Network* net = nullptr;

  explicit Resolved(const RunSpec& spec) {
    net = resolve_network(spec, result.owned_net, result.error);
    if (net == nullptr) result.error_kind = ErrorKind::kSpecInvalid;
  }
  bool ok() const noexcept { return net != nullptr; }
};

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

/// Interprets `exec` on the spec's execution model (scalar or wave) —
/// under the spec's drawn fault overlay when it requests simulated-network
/// faults — collecting the trace into `out` or, when `sink` is non-null,
/// streaming it there. Returns false with out.error set on an invalid
/// execution.
bool interpret(RunResult& out, const RunSpec& spec,
               const TimedExecution& exec, SimArena& arena, TraceSink* sink) {
  // `overlay` is empty (pristine) or the one SimFaults argument.
  const auto run = [&](const auto&... overlay) {
    if (sink != nullptr) {
      return spec.wave_exec
                 ? simulate_wave_stream(exec, overlay..., arena, *sink)
                 : simulate_stream(exec, overlay..., arena, *sink);
    }
    return spec.wave_exec ? simulate_wave(exec, overlay..., arena)
                          : simulate(exec, overlay..., arena);
  };
  const bool faulted = spec.fault.sim_faults();
  SimFaults faults;
  if (faulted) {
    faults = fault::draw_sim_faults(*exec.net, exec, spec.fault, spec.seed);
  }
  SimulationResult sim = faulted ? run(faults) : run();
  if (!sim.ok()) {
    out.error = (faulted ? "faulted simulation failed: "
                         : "simulation failed: ") +
                sim.error;
    return false;
  }
  out.trace = std::move(sim.trace);
  if (faulted) record_sim_fault_metrics(out, faults);
  return true;
}

/// Runs a freshly built execution through the simulator and fills the
/// result, reusing the worker's arena (compiled tables + trial buffers).
/// Streaming runs (`sink` non-null) send every completed token to the sink
/// in issue order and keep neither the trace nor the execution.
void finish_simulated(RunResult& out, const RunSpec& spec, TimedExecution exec,
                      SimArena& arena, TraceSink* sink = nullptr) {
  if (interpret(out, spec, exec, arena, sink) && sink == nullptr) {
    out.exec = std::move(exec);
  }
}

/// Re-interprets an already-built execution under the spec's fault
/// overlay (wave / optimizer: the adversarial schedule is built pristine,
/// then the faults hit it). Replaces the trace and resets the report so
/// run_backend re-analyzes the degraded trace.
bool apply_sim_faults(RunResult& out, const RunSpec& spec) {
  if (!spec.fault.sim_faults() || !out.ok()) return out.ok();
  if (out.exec.net == nullptr || out.exec.plans.empty()) {
    out.error = "faulted simulation failed: backend produced no execution";
    return false;
  }
  // These backends build their schedule without a RunContext, so there
  // is no shared arena to reuse; a local one compiles the tables once.
  SimArena arena;
  if (!interpret(out, spec, out.exec, arena, nullptr)) return false;
  out.report = ConsistencyReport{};
  return true;
}

// ---------------------------------------------------------------------
// simulator: the randomized closed-loop workload generator.
// ---------------------------------------------------------------------
class SimulatorBackend final : public TraceSource {
 public:
  std::string name() const override { return "simulator"; }
  std::string description() const override {
    return "random closed-loop workload through the timed simulator";
  }

  RunResult run(const RunSpec& spec) const override {
    RunContext ctx;
    return run(spec, ctx);
  }

  RunResult run(const RunSpec& spec, RunContext& ctx) const override {
    Resolved r(spec);
    if (!r.ok()) return std::move(r.result);
    finish_simulated(r.result, spec, make_exec(spec, *r.net), ctx.arena);
    return std::move(r.result);
  }

  RunResult run(const RunSpec& spec, RunContext& ctx,
                TraceSink& sink) const override {
    Resolved r(spec);
    if (!r.ok()) return std::move(r.result);
    finish_simulated(r.result, spec, make_exec(spec, *r.net), ctx.arena,
                     &sink);
    return std::move(r.result);
  }

 private:
  static TimedExecution make_exec(const RunSpec& spec, const Network& net) {
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
};

// ---------------------------------------------------------------------
// sim_burst: bursts separated by a global-delay floor (pure C_g probe).
// ---------------------------------------------------------------------
class BurstBackend final : public TraceSource {
 public:
  std::string name() const override { return "sim_burst"; }
  std::string description() const override {
    return "burst workload honoring a global-delay (C_g) floor";
  }

  RunResult run(const RunSpec& spec) const override {
    RunContext ctx;
    return run(spec, ctx);
  }

  RunResult run(const RunSpec& spec, RunContext& ctx) const override {
    Resolved r(spec);
    if (!r.ok()) return std::move(r.result);
    finish_simulated(r.result, spec, make_exec(spec, *r.net), ctx.arena);
    return std::move(r.result);
  }

  RunResult run(const RunSpec& spec, RunContext& ctx,
                TraceSink& sink) const override {
    Resolved r(spec);
    if (!r.ok()) return std::move(r.result);
    finish_simulated(r.result, spec, make_exec(spec, *r.net), ctx.arena,
                     &sink);
    return std::move(r.result);
  }

 private:
  static TimedExecution make_exec(const RunSpec& spec, const Network& net) {
    Xoshiro256 rng(spec.seed);
    TimedExecution exec;
    exec.net = &net;
    const std::uint32_t d = net.depth();
    TokenId next = 0;
    double t0 = 0.0;
    for (std::uint32_t b = 0; b < spec.bursts; ++b) {
      double latest_exit = t0;
      for (std::uint32_t i = 0; i < spec.burst_size; ++i) {
        TokenPlan p;
        p.token = next;
        p.process = next;  // all distinct processes: pure C_g probe
        p.source = i % net.fan_in();
        p.rank = rng.unit();
        p.times.resize(d + 1);
        p.times[0] = t0 + rng.uniform(0.0, 0.25 * spec.c_min);
        for (std::uint32_t h = 1; h <= d; ++h) {
          p.times[h] =
              p.times[h - 1] + (rng.below(2) ? spec.c_min : spec.c_max);
        }
        latest_exit = std::max(latest_exit, p.times[d]);
        exec.plans.push_back(std::move(p));
        ++next;
      }
      t0 = latest_exit + spec.burst_gap;
    }
    return exec;
  }
};

// ---------------------------------------------------------------------
// sim_heterogeneous: hare (process 0) vs tortoise local delays.
// ---------------------------------------------------------------------

/// Streaming computation of the heterogeneous backend's extra metrics
/// (hare/other op counts, per-process SC flags). Exact replacement for
/// the batch is_sequentially_consistent_for calls: the simulator emits
/// each process's records in issue order (a closed-loop process's tokens
/// complete in the order they were issued), so a per-process prefix max
/// over the arrival stream sees exactly what the batch check sees.
class HetMetricsSink final : public TraceSink {
 public:
  HetMetricsSink(TraceSink& inner, std::uint32_t processes)
      : inner_(inner), procs_(processes) {}

  void on_record(const TokenRecord& rec) override {
    inner_.on_record(rec);
    (rec.process == 0 ? hare_ops_ : other_ops_) += 1;
    if (rec.process >= procs_.size()) procs_.resize(rec.process + 1);
    Proc& p = procs_[rec.process];
    if (p.any && p.prefix_max > rec.value) p.non_sc = true;
    p.prefix_max = p.any ? std::max(p.prefix_max, rec.value) : rec.value;
    p.any = true;
  }

  std::uint64_t hare_ops() const noexcept { return hare_ops_; }
  std::uint64_t other_ops() const noexcept { return other_ops_; }
  bool hare_sc() const noexcept {
    return procs_.empty() || !procs_[0].non_sc;
  }
  bool others_sc() const noexcept {
    for (std::size_t p = 1; p < procs_.size(); ++p) {
      if (procs_[p].non_sc) return false;
    }
    return true;
  }

 private:
  struct Proc {
    bool any = false;
    bool non_sc = false;
    Value prefix_max = 0;
  };
  TraceSink& inner_;
  std::uint64_t hare_ops_ = 0;
  std::uint64_t other_ops_ = 0;
  std::vector<Proc> procs_;
};

class HeterogeneousBackend final : public TraceSource {
 public:
  std::string name() const override { return "sim_heterogeneous"; }
  std::string description() const override {
    return "per-process local delays: hare process 0 vs paced tortoises";
  }

  RunResult run(const RunSpec& spec) const override {
    RunContext ctx;
    return run(spec, ctx);
  }

  RunResult run(const RunSpec& spec, RunContext& ctx) const override {
    Resolved r(spec);
    if (!r.ok()) return std::move(r.result);
    const Network& net = *r.net;
    finish_simulated(r.result, spec, make_exec(spec, net), ctx.arena);
    if (!r.result.ok()) return std::move(r.result);
    std::uint64_t hare_ops = 0, other_ops = 0;
    for (const TokenRecord& rec : r.result.trace) {
      (rec.process == 0 ? hare_ops : other_ops) += 1;
    }
    bool others_sc = true;
    for (ProcessId p = 1; p < net.fan_in(); ++p) {
      others_sc &= is_sequentially_consistent_for(r.result.trace, p);
    }
    r.result.metrics["hare_ops"] = static_cast<double>(hare_ops);
    r.result.metrics["other_ops"] = static_cast<double>(other_ops);
    r.result.metrics["hare_sc"] =
        is_sequentially_consistent_for(r.result.trace, 0) ? 1.0 : 0.0;
    r.result.metrics["others_sc"] = others_sc ? 1.0 : 0.0;
    return std::move(r.result);
  }

  RunResult run(const RunSpec& spec, RunContext& ctx,
                TraceSink& sink) const override {
    Resolved r(spec);
    if (!r.ok()) return std::move(r.result);
    const Network& net = *r.net;
    HetMetricsSink het(sink, net.fan_in());
    finish_simulated(r.result, spec, make_exec(spec, net), ctx.arena, &het);
    if (!r.result.ok()) return std::move(r.result);
    r.result.metrics["hare_ops"] = static_cast<double>(het.hare_ops());
    r.result.metrics["other_ops"] = static_cast<double>(het.other_ops());
    r.result.metrics["hare_sc"] = het.hare_sc() ? 1.0 : 0.0;
    r.result.metrics["others_sc"] = het.others_sc() ? 1.0 : 0.0;
    return std::move(r.result);
  }

 private:
  static TimedExecution make_exec(const RunSpec& spec, const Network& net) {
    Xoshiro256 rng(spec.seed);
    TimedExecution exec;
    exec.net = &net;
    const std::uint32_t d = net.depth();
    TokenId next = 0;
    for (ProcessId p = 0; p < net.fan_in(); ++p) {
      const double local = p == 0 ? spec.hare_delay : spec.tortoise_delay;
      double t = 0.0;
      std::uint32_t k = 0;
      while (t < spec.horizon) {
        TokenPlan plan;
        plan.token = next++;
        plan.process = p;
        plan.source = p;
        plan.rank = k + rng.unit() * 0.9;
        plan.times.resize(d + 1);
        plan.times[0] = t;
        for (std::uint32_t h = 1; h <= d; ++h) {
          plan.times[h] =
              plan.times[h - 1] + (rng.below(2) ? spec.c_min : spec.c_max);
        }
        t = plan.times[d] + local;
        exec.plans.push_back(std::move(plan));
        ++k;
      }
    }
    return exec;
  }
};

// ---------------------------------------------------------------------
// wave: the paper's three-wave adversarial execution.
// ---------------------------------------------------------------------
class WaveBackend final : public TraceSource {
 public:
  std::string name() const override { return "wave"; }
  std::string description() const override {
    return "three-wave adversary at a split level (Prop 5.3 / Thm 5.11)";
  }

  RunResult run(const RunSpec& spec) const override {
    Resolved r(spec);
    if (!r.ok()) return std::move(r.result);
    const SplitAnalysis split(*r.net);
    if (!split.applicable()) {
      r.result.error = "network has no split structure";
      return std::move(r.result);
    }
    WaveSpec ws;
    ws.ell = spec.ell;
    ws.c_min = spec.c_min;
    ws.c_max = spec.wave_c_max;
    ws.distinct_processes = spec.distinct_processes;
    ws.wave3_extra_delay = spec.wave3_extra_delay;
    WaveResult wave = run_wave_execution(*r.net, split, ws);
    if (!wave.ok()) {
      r.result.error = wave.error;
      return std::move(r.result);
    }
    r.result.trace = std::move(wave.trace);
    r.result.report = std::move(wave.report);
    r.result.exec = std::move(wave.exec);
    r.result.metrics["required_ratio"] = wave.required_ratio;
    r.result.metrics["ratio_used"] = wave.timing.ratio();
    r.result.metrics["predicted_f_nl"] = wave.predicted_f_nl;
    r.result.metrics["predicted_f_nsc"] = wave.predicted_f_nsc;
    r.result.metrics["wave1_size"] = static_cast<double>(wave.wave1_size);
    r.result.metrics["wave2_size"] = static_cast<double>(wave.wave2_size);
    r.result.metrics["wave3_size"] = static_cast<double>(wave.wave3_size);
    r.result.metrics["race_depth"] =
        static_cast<double>(split.race_depth(spec.ell));
    apply_sim_faults(r.result, spec);
    return std::move(r.result);
  }
};

// ---------------------------------------------------------------------
// optimizer: hill-climbing schedule adversary.
// ---------------------------------------------------------------------
class OptimizerBackend final : public TraceSource {
 public:
  std::string name() const override { return "optimizer"; }
  std::string description() const override {
    return "annealed schedule search maximizing an inconsistency fraction";
  }

  RunResult run(const RunSpec& spec) const override {
    Resolved r(spec);
    if (!r.ok()) return std::move(r.result);
    OptimizerSpec os;
    os.processes = spec.processes;
    os.tokens_per_process = spec.ops_per_process;
    os.c_min = spec.c_min;
    os.c_max = spec.c_max;
    os.local_delay_min = spec.local_delay_min;
    os.objective = spec.opt_objective_nonlin
                       ? OptimizerSpec::Objective::kMaxNonLin
                       : OptimizerSpec::Objective::kMaxNonSC;
    os.iterations = spec.opt_iterations;
    os.restarts = spec.opt_restarts;
    os.seed = spec.seed;
    OptimizerResult opt = optimize_schedule(*r.net, os);
    r.result.report = std::move(opt.report);
    r.result.exec = std::move(opt.best);
    const SimulationResult sim = simulate(r.result.exec);
    if (sim.ok()) r.result.trace = sim.trace;
    r.result.metrics["best_fraction"] = opt.best_fraction;
    r.result.metrics["evaluations"] = static_cast<double>(opt.evaluations);
    apply_sim_faults(r.result, spec);
    return std::move(r.result);
  }
};

// ---------------------------------------------------------------------
// msg: the message-passing actor service.
// ---------------------------------------------------------------------
class MsgBackend final : public TraceSource {
 public:
  std::string name() const override { return "msg"; }
  std::string description() const override {
    return "message-passing actor service with latencies in [c_min, c_max]";
  }

  RunResult run(const RunSpec& spec) const override {
    return run_msg(spec, nullptr);
  }

  RunResult run(const RunSpec& spec, RunContext& ctx,
                TraceSink& sink) const override {
    // The msg kernel streams natively unless message duplication is on:
    // a duplicated delivery re-counts a token after its record was
    // emitted, which only the collecting path can express. Duplication
    // cases fall back to the base collect-then-replay path.
    if (spec.fault.enabled && spec.fault.p_msg_duplicate > 0.0) {
      return TraceSource::run(spec, ctx, sink);
    }
    return run_msg(spec, &sink);
  }

 private:
  RunResult run_msg(const RunSpec& spec, TraceSink* sink) const {
    Resolved r(spec);
    if (!r.ok()) return std::move(r.result);
    msg::MsgRunSpec ms;
    ms.processes = spec.processes;
    ms.ops_per_process = spec.ops_per_process;
    ms.c_min = spec.c_min;
    ms.c_max = spec.c_max;
    ms.extreme_latencies = spec.extreme_delays;
    ms.local_delay = spec.local_delay_min;
    ms.result_latency = spec.result_latency;
    ms.seed = spec.seed;
    ms.slow_process_zero = spec.slow_process_zero;
    ms.fault = spec.fault;
    if (std::string err = msg::validate(ms); !err.empty()) {
      r.result.error = std::move(err);
      r.result.error_kind = ErrorKind::kSpecInvalid;
      return std::move(r.result);
    }
    msg::MsgRunResult mr = sink != nullptr
                               ? run_message_passing(*r.net, ms, *sink)
                               : run_message_passing(*r.net, ms);
    if (!mr.ok()) {
      r.result.error = mr.error;
      return std::move(r.result);
    }
    r.result.trace = std::move(mr.trace);
    r.result.metrics["messages"] = static_cast<double>(mr.messages);
    r.result.metrics["sim_time"] = mr.sim_time;
    if (spec.fault.enabled) {
      r.result.metrics["fault_tokens_lost"] =
          static_cast<double>(mr.tokens_lost);
      r.result.metrics["fault_dup_deliveries"] =
          static_cast<double>(mr.dup_deliveries);
      r.result.metrics["fault_delayed_messages"] =
          static_cast<double>(mr.delayed_messages);
      r.result.metrics["fault_clients_crashed"] =
          static_cast<double>(mr.clients_crashed);
    }
    return std::move(r.result);
  }
};

// ---------------------------------------------------------------------
// concurrent: the shared-memory network on real threads.
// ---------------------------------------------------------------------
class ConcurrentBackend final : public TraceSource {
 public:
  std::string name() const override { return "concurrent"; }
  std::string description() const override {
    return "shared-memory counting network driven by real threads";
  }

  RunResult run(const RunSpec& spec) const override {
    return run_concurrent(spec, nullptr);
  }

  RunResult run(const RunSpec& spec, RunContext&,
                TraceSink& sink) const override {
    return run_concurrent(spec, &sink);
  }

 private:
  RunResult run_concurrent(const RunSpec& spec, TraceSink* sink) const {
    Resolved r(spec);
    if (!r.ok()) return std::move(r.result);
    ConcurrentNetwork net(*r.net);
    if (!spec.record_trace) {
      const std::uint32_t fan_in = r.net->fan_in();
      double ops = 0.0;
      if (spec.batch_size > 1) {
        // Batched traversal: ops_per_thread still counts TOKENS, carried
        // in chunks of batch_size per increment_batch call.
        ops = run_batch_throughput(
            spec.threads, spec.ops_per_thread, spec.batch_size,
            [&net, fan_in](std::uint32_t th, std::uint64_t* out,
                           std::uint32_t k) {
              net.increment_batch(th % fan_in, k, out);
            });
        r.result.metrics["batch_size"] =
            static_cast<double>(spec.batch_size);
      } else {
        ops = run_throughput(spec.threads, spec.ops_per_thread,
                             [&net, fan_in](std::uint32_t th) {
                               return net.increment(th % fan_in);
                             });
      }
      r.result.metrics["ops_per_sec"] = ops;
      r.result.metrics["total_ops"] =
          static_cast<double>(spec.threads) * spec.ops_per_thread;
      return std::move(r.result);
    }
    ConcurrentRunSpec cs;
    cs.threads = spec.threads;
    cs.ops_per_thread = spec.ops_per_thread;
    cs.hop_delay_min_ns = spec.hop_delay_min_ns;
    cs.hop_delay_max_ns = spec.hop_delay_max_ns;
    cs.local_delay_ns = spec.local_delay_ns;
    cs.seed = spec.seed;
    cs.record_schedule = spec.record_schedule;
    cs.fault = spec.fault;
    if (std::string err = validate(cs); !err.empty()) {
      r.result.error = std::move(err);
      r.result.error_kind = ErrorKind::kSpecInvalid;
      return std::move(r.result);
    }
    ConcurrentRunResult cr =
        sink != nullptr ? run_recorded(net, cs, *sink) : run_recorded(net, cs);
    if (!cr.ok()) {
      r.result.error = cr.error;
      return std::move(r.result);
    }
    r.result.trace = std::move(cr.trace);
    r.result.exec = std::move(cr.schedule);
    // The schedule's net pointer refers to the harness-local wrapper's
    // topology, which is the resolved network — keep it pointed there.
    if (spec.record_schedule) r.result.exec.net = r.net;
    r.result.metrics["total_ops"] = static_cast<double>(cr.total_ops);
    r.result.metrics["elapsed_sec"] = cr.elapsed_sec;
    r.result.metrics["ops_per_sec"] = cr.ops_per_sec;
    if (spec.fault.enabled) {
      r.result.metrics["fault_stalls"] = static_cast<double>(cr.stalls);
      r.result.metrics["fault_tokens_abandoned"] =
          static_cast<double>(cr.tokens_abandoned);
      r.result.metrics["fault_threads_crashed"] =
          static_cast<double>(cr.threads_crashed);
    }
    return std::move(r.result);
  }
};

using Clock = std::chrono::steady_clock;

double to_seconds(Clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

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
/// Why a forced resize schedule cannot run under `elastic`; empty when
/// it can (or when there is no schedule).
std::string resize_plan_error(const std::vector<std::uint32_t>& plan,
                              const service::ElasticConfig& elastic) {
  if (plan.empty()) return {};
  if (!elastic.enabled) {
    return "spec invalid: service_resize_plan requires "
           "service.elastic.enabled";
  }
  for (const std::uint32_t level : plan) {
    if (level < elastic.min_level || level > elastic.max_level) {
      return "spec invalid: resize plan level " + std::to_string(level) +
             " outside [" + std::to_string(elastic.min_level) + ", " +
             std::to_string(elastic.max_level) + "]";
    }
  }
  return {};
}

class ServiceBackend final : public TraceSource {
 public:
  std::string name() const override { return "service"; }
  std::string description() const override {
    return "sharded counting service with batching workers";
  }

  RunResult run(const RunSpec& spec) const override {
    return run_service(spec, nullptr);
  }

  RunResult run(const RunSpec& spec, RunContext&,
                TraceSink& sink) const override {
    return run_service(spec, &sink);
  }

 private:
  RunResult run_service(const RunSpec& spec, TraceSink* sink) const {
    Resolved r(spec);
    if (!r.ok()) return std::move(r.result);
    if (spec.threads == 0 || spec.ops_per_thread == 0) {
      r.result.error = spec.threads == 0 ? "spec invalid: threads == 0"
                                         : "spec invalid: ops_per_thread == 0";
      r.result.error_kind = ErrorKind::kSpecInvalid;
      return std::move(r.result);
    }
    // spec.service is the service's configuration; the engine supplies
    // only the four fields every backend takes from the common spec.
    service::ServiceConfig cfg = spec.service;
    cfg.net = r.net;
    cfg.fault = spec.fault;
    cfg.seed = spec.seed;
    cfg.record = spec.record_trace;
    const std::vector<std::uint32_t>& resize_plan = spec.service_resize_plan;
    std::string err = resize_plan_error(resize_plan, cfg.elastic);
    if (err.empty()) err = service::validate(cfg);
    if (!err.empty()) {
      r.result.error = std::move(err);
      r.result.error_kind = ErrorKind::kSpecInvalid;
      return std::move(r.result);
    }
    // Collecting mode still records through a sink; the service only
    // knows the streaming interface.
    CollectSink collect;
    TraceSink* out_sink =
        cfg.record ? (sink != nullptr ? sink : &collect) : nullptr;
    service::CountingService svc(cfg, out_sink);
    svc.start();
    // Resilient closed-loop clients: policy-bounded retries with seeded
    // backoff and (optionally) per-request deadlines replace the old
    // bare retry-forever/spin-forever loop, so a crashed or saturated
    // shard can slow clients down but never hang them.
    SpinBarrier barrier(spec.threads);
    // Clients are allocated OUTSIDE their threads and destroyed only
    // after svc.stop(): a timed-out request's completion slot stays
    // leased to the service until its store arrives (possibly during
    // the shutdown scavenge), so the slots must outlive the workers.
    std::vector<std::unique_ptr<service::PolicyClient>> client_objs;
    client_objs.reserve(spec.threads);
    for (std::uint32_t t = 0; t < spec.threads; ++t) {
      client_objs.push_back(std::make_unique<service::PolicyClient>(
          svc, spec.service_policy, t, spec.seed));
    }
    std::vector<std::thread> clients;
    clients.reserve(spec.threads);
    // Forced resize schedule: entry k fires once (k+1)/(n+1) of the
    // run's submissions have been accepted; entries the load never
    // reaches are applied at the end, so the planned epoch transitions
    // always happen.
    std::atomic<bool> clients_done{false};
    std::thread resizer;
    if (!resize_plan.empty()) {
      const std::uint64_t total =
          static_cast<std::uint64_t>(spec.threads) * spec.ops_per_thread;
      resizer = std::thread([&svc, &clients_done, &resize_plan, total] {
        std::size_t next = 0;
        while (next < resize_plan.size()) {
          if (clients_done.load(std::memory_order_acquire)) break;
          const std::uint64_t threshold =
              total * (next + 1) / (resize_plan.size() + 1);
          if (svc.health().submitted >= threshold) {
            svc.resize(resize_plan[next]);
            ++next;
          } else {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }
        for (; next < resize_plan.size(); ++next) {
          svc.resize(resize_plan[next]);
        }
      });
    }
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
    clients_done.store(true, std::memory_order_release);
    if (resizer.joinable()) resizer.join();
    svc.stop();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t_start).count();
    const service::ServiceStats& st = svc.stats();
    if (cfg.record && sink == nullptr) r.result.trace = collect.take();
    service::ClientStats agg;
    for (const auto& c : client_objs) {
      const service::ClientStats& cs = c->stats();
      agg.completed += cs.completed;
      agg.rejected += cs.rejected;
      agg.dropped += cs.dropped;
      agg.timed_out += cs.timed_out;
      agg.retries += cs.retries;
    }
    client_objs.clear();  // Every slot has resolved by now (post-stop).
    // A run where EVERY request blew its deadline is a failure with its
    // own taxonomy entry: sweeps classify client timeouts as
    // deadline_exceeded instead of lumping them into backend_error.
    if (spec.service_policy.deadline_ns > 0 && agg.completed == 0 &&
        agg.timed_out > 0) {
      r.result.error = "every client request exceeded its deadline";
      r.result.error_kind = ErrorKind::kDeadlineExceeded;
      return std::move(r.result);
    }
    const service::ResidueAudit audit = svc.audit();
    r.result.metrics["total_ops"] = static_cast<double>(st.completed);
    r.result.metrics["elapsed_sec"] = elapsed;
    r.result.metrics["ops_per_sec"] =
        elapsed > 0 ? static_cast<double>(st.completed) / elapsed : 0.0;
    // The final epoch's width: elastic runs ignore cfg.shards.
    r.result.metrics["shards"] = static_cast<double>(svc.shards());
    r.result.metrics["rejected"] = static_cast<double>(st.rejected);
    r.result.metrics["batches"] = static_cast<double>(st.batches);
    r.result.metrics["mean_batch"] = st.mean_batch;
    r.result.metrics["max_batch"] = static_cast<double>(st.max_batch_seen);
    r.result.metrics["p50_us"] =
        static_cast<double>(st.latency.p50()) / 1000.0;
    r.result.metrics["p99_us"] =
        static_cast<double>(st.latency.p99()) / 1000.0;
    r.result.metrics["p999_us"] =
        static_cast<double>(st.latency.p999()) / 1000.0;
    // Self-healing telemetry: client outcomes, recovery counters, and
    // the quiescent residue audit ride into RunResult so sweeps can
    // gate on them like any other metric.
    r.result.metrics["timed_out"] = static_cast<double>(st.timed_out);
    r.result.metrics["client_rejected"] = static_cast<double>(agg.rejected);
    r.result.metrics["retries"] = static_cast<double>(agg.retries);
    r.result.metrics["shed"] = static_cast<double>(st.shed);
    r.result.metrics["crashes"] = static_cast<double>(st.crashes);
    r.result.metrics["respawns"] = static_cast<double>(st.respawns);
    r.result.metrics["crash_lost"] = static_cast<double>(st.crash_lost);
    r.result.metrics["abandoned"] = static_cast<double>(st.abandoned);
    r.result.metrics["wedge_detections"] =
        static_cast<double>(st.wedge_detections);
    r.result.metrics["residue_holes"] = static_cast<double>(audit.holes);
    r.result.metrics["audit_exact"] = audit.exact ? 1.0 : 0.0;
    r.result.metrics["audit_gap_free"] = audit.gap_free ? 1.0 : 0.0;
    // Ingress shape: how much the batched path actually amortized.
    r.result.metrics["client_batch"] = static_cast<double>(client_batch);
    r.result.metrics["ingress_batches"] =
        static_cast<double>(st.ingress_batches);
    r.result.metrics["ingress_cells"] =
        static_cast<double>(st.ingress_cells);
    if (cfg.elastic.enabled) {
      // Epoch-transition telemetry: every retired epoch carries its own
      // Lemma 3.1 audit; epochs_ok == 1 means audit_exact && gap_free
      // held across EVERY boundary, the elastic acceptance gate.
      r.result.metrics["epochs"] = static_cast<double>(st.epochs);
      r.result.metrics["splits"] = static_cast<double>(st.splits);
      r.result.metrics["merges"] = static_cast<double>(st.merges);
      r.result.metrics["final_level"] = static_cast<double>(st.final_level);
      bool epochs_ok = true;
      double worst_f_nl = 0.0;
      double worst_excess = 0.0;
      for (const service::EpochStats& es : svc.epoch_history()) {
        if (!es.ok()) epochs_ok = false;
        if (es.f_nl > worst_f_nl) worst_f_nl = es.f_nl;
        if (es.f_nl >= 0.0 && es.f_nl - es.f_nl_bound > worst_excess) {
          worst_excess = es.f_nl - es.f_nl_bound;
        }
      }
      r.result.metrics["epochs_ok"] = epochs_ok ? 1.0 : 0.0;
      if (cfg.record) {
        r.result.metrics["max_epoch_f_nl"] = worst_f_nl;
        r.result.metrics["max_f_nl_over_bound"] = worst_excess;
      }
    }
    if (spec.fault.enabled) {
      r.result.metrics["fault_stalls"] = static_cast<double>(st.stalls);
      r.result.metrics["fault_tokens_abandoned"] =
          static_cast<double>(st.dropped);
    }
    return std::move(r.result);
  }
};

// ---------------------------------------------------------------------
// Baseline counters: a generic recorded / throughput runner over any
// `next(thread) -> value` functor, mirroring the harness conventions.
// ---------------------------------------------------------------------

/// Spins for `ns` nanoseconds (fault-injected stall in a counter op).
void counter_stall(std::uint64_t ns) {
  if (ns == 0) return;
  const auto deadline = Clock::now() + std::chrono::nanoseconds(ns);
  std::uint32_t spins = 0;
  while (Clock::now() < deadline) {
    if (++spins % 128 == 0) std::this_thread::yield();
  }
}

/// Feeds per-thread partial traces (each sequential, hence sorted by
/// issue key and completion key alike) to `sink` in global issue order —
/// the shared k-way merge (trace/sink.hpp), which also batches the
/// emission instead of dispatching per record.
void merge_partials_into(std::vector<Trace>& partial, TraceSink& sink) {
  merge_issue_ordered(partial, sink);
}

template <typename Next>
void run_counter(RunResult& out, const RunSpec& spec, Next&& next,
                 TraceSink* sink = nullptr) {
  if (spec.threads == 0) {
    out.error = "spec invalid: threads == 0";
    out.error_kind = ErrorKind::kSpecInvalid;
    return;
  }
  if (spec.ops_per_thread == 0) {
    out.error = "spec invalid: ops_per_thread == 0";
    out.error_kind = ErrorKind::kSpecInvalid;
    return;
  }
  if (!spec.record_trace) {
    const double ops = run_throughput(
        spec.threads, spec.ops_per_thread,
        std::function<std::uint64_t(std::uint32_t)>(next));
    out.metrics["ops_per_sec"] = ops;
    out.metrics["total_ops"] =
        static_cast<double>(spec.threads) * spec.ops_per_thread;
    return;
  }
  const bool faulted = spec.fault.active();
  std::vector<Trace> partial(spec.threads);
  std::vector<std::uint64_t> stalls(spec.threads, 0);
  std::vector<std::uint64_t> lost(spec.threads, 0);
  std::vector<std::uint8_t> crashed(spec.threads, 0);
  SpinBarrier barrier(spec.threads);
  std::vector<std::thread> workers;
  workers.reserve(spec.threads);
  const auto t_start = Clock::now();
  for (std::uint32_t t = 0; t < spec.threads; ++t) {
    workers.emplace_back([&, t] {
      // Same per-thread stream convention as the concurrent harness.
      fault::FaultStream faults(spec.fault, spec.seed, 100 + t);
      std::uint64_t crash_at = spec.ops_per_thread;  // "never"
      if (faulted && spec.fault.p_process_crash > 0.0 &&
          faults.flip(spec.fault.p_process_crash)) {
        crash_at = faults.pick(0, spec.ops_per_thread - 1);
      }
      Trace& mine = partial[t];
      mine.reserve(spec.ops_per_thread);
      barrier.arrive_and_wait();
      for (std::uint64_t k = 0; k < spec.ops_per_thread; ++k) {
        if (k >= crash_at) {
          crashed[t] = 1;
          break;
        }
        bool drop = false;
        if (faulted) {
          if (faults.flip(spec.fault.p_thread_stall)) {
            ++stalls[t];
            counter_stall(spec.fault.stall_ns);
          }
          // Abandon for a flat counter = the value is fetched but its
          // holder dies before using it: handed out, never observed.
          drop = faults.flip(spec.fault.p_thread_abandon);
        }
        const auto in = Clock::now();
        const std::uint64_t v = next(t);
        const auto fin = Clock::now();
        if (drop) {
          ++lost[t];
          continue;
        }
        TokenRecord rec;
        rec.token = static_cast<TokenId>(t * spec.ops_per_thread + k);
        rec.process = t;
        rec.source = t;
        rec.sink = 0;
        rec.value = v;
        rec.t_in = to_seconds(in);
        rec.t_out = to_seconds(fin);
        rec.first_seq = to_ns(in);
        rec.last_seq = to_ns(fin);
        mine.push_back(rec);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t_start).count();
  std::uint64_t completed_ops = 0;
  for (const Trace& p : partial) completed_ops += p.size();
  if (sink == nullptr) {
    for (Trace& p : partial) {
      out.trace.insert(out.trace.end(), p.begin(), p.end());
    }
  } else {
    merge_partials_into(partial, *sink);
  }
  const double total =
      faulted ? static_cast<double>(completed_ops)
              : static_cast<double>(spec.threads) * spec.ops_per_thread;
  out.metrics["total_ops"] = total;
  out.metrics["elapsed_sec"] = elapsed;
  out.metrics["ops_per_sec"] = elapsed > 0 ? total / elapsed : 0.0;
  if (spec.fault.enabled) {
    std::uint64_t s = 0, l = 0, c = 0;
    for (std::uint32_t t = 0; t < spec.threads; ++t) {
      s += stalls[t];
      l += lost[t];
      c += crashed[t];
    }
    out.metrics["fault_stalls"] = static_cast<double>(s);
    out.metrics["fault_values_lost"] = static_cast<double>(l);
    out.metrics["fault_threads_crashed"] = static_cast<double>(c);
  }
}

class FetchIncBackend final : public TraceSource {
 public:
  std::string name() const override { return "fetch_inc"; }
  std::string description() const override {
    return "single shared fetch&increment counter";
  }

  RunResult run(const RunSpec& spec) const override {
    RunResult out;
    FetchIncCounter c;
    run_counter(out, spec, [&c](std::uint32_t) { return c.next(); });
    return out;
  }

  RunResult run(const RunSpec& spec, RunContext&,
                TraceSink& sink) const override {
    RunResult out;
    FetchIncCounter c;
    run_counter(out, spec, [&c](std::uint32_t) { return c.next(); }, &sink);
    return out;
  }
};

class McsBackend final : public TraceSource {
 public:
  std::string name() const override { return "mcs"; }
  std::string description() const override {
    return "MCS queue-lock protected counter";
  }

  RunResult run(const RunSpec& spec) const override {
    RunResult out;
    McsCounter c;
    run_counter(out, spec, [&c](std::uint32_t th) { return c.next(th); });
    return out;
  }

  RunResult run(const RunSpec& spec, RunContext&,
                TraceSink& sink) const override {
    RunResult out;
    McsCounter c;
    run_counter(out, spec, [&c](std::uint32_t th) { return c.next(th); },
                &sink);
    return out;
  }
};

class CombiningTreeBackend final : public TraceSource {
 public:
  std::string name() const override { return "combining_tree"; }
  std::string description() const override {
    return "software combining tree counter";
  }

  RunResult run(const RunSpec& spec) const override {
    RunResult out;
    CombiningTree c(capacity_for(spec));
    run_counter(out, spec, [&c](std::uint32_t th) { return c.next(th); });
    return out;
  }

  RunResult run(const RunSpec& spec, RunContext&,
                TraceSink& sink) const override {
    RunResult out;
    CombiningTree c(capacity_for(spec));
    run_counter(out, spec, [&c](std::uint32_t th) { return c.next(th); },
                &sink);
    return out;
  }

 private:
  static std::uint32_t capacity_for(const RunSpec& spec) {
    std::uint32_t capacity = 2;
    while (capacity < spec.threads) capacity *= 2;
    return std::max(capacity, spec.width);
  }
};

class DiffractingTreeBackend final : public TraceSource {
 public:
  std::string name() const override { return "diffracting_tree"; }
  std::string description() const override {
    return "diffracting tree counter with prism exchangers";
  }

  RunResult run(const RunSpec& spec) const override {
    RunResult out;
    DiffractingTree c(spec.width);
    run_counter(out, spec, [&c](std::uint32_t th) { return c.next(th); });
    if (out.ok()) {
      out.metrics["diffracted"] = static_cast<double>(c.total_diffracted());
    }
    return out;
  }

  RunResult run(const RunSpec& spec, RunContext&,
                TraceSink& sink) const override {
    RunResult out;
    DiffractingTree c(spec.width);
    run_counter(out, spec, [&c](std::uint32_t th) { return c.next(th); },
                &sink);
    if (out.ok()) {
      out.metrics["diffracted"] = static_cast<double>(c.total_diffracted());
    }
    return out;
  }
};

// ---------------------------------------------------------------------
// replay: re-analyzes a trace recorded with spec.record_path /
// bench_sweep --record. The file (trace/serialize.hpp format) stands in
// for the live producer; everything downstream — batch analyze or the
// streaming checker — treats it like any other backend's records.
// ---------------------------------------------------------------------
class ReplayBackend final : public TraceSource {
 public:
  std::string name() const override { return "replay"; }
  std::string description() const override {
    return "re-analyzes a recorded trace file (RunSpec::replay_path)";
  }

  RunResult run(const RunSpec& spec) const override {
    RunResult out;
    if (spec.replay_path.empty()) {
      out.error = "replay backend requires replay_path";
      out.error_kind = ErrorKind::kSpecInvalid;
      return out;
    }
    ReadTraceResult rd = read_trace_file(spec.replay_path);
    if (!rd.ok()) {
      out.error = "replay failed: " + rd.error;
      out.error_kind = ErrorKind::kSpecInvalid;
      return out;
    }
    out.trace = std::move(rd.trace);
    out.metrics["replayed_records"] = static_cast<double>(out.trace.size());
    return out;
  }
};

template <typename T>
BackendFactory factory() {
  return [] { return std::make_unique<T>(); };
}

}  // namespace

void register_builtin_backends() {
  register_backend("simulator", factory<SimulatorBackend>());
  register_backend("sim_burst", factory<BurstBackend>());
  register_backend("sim_heterogeneous", factory<HeterogeneousBackend>());
  register_backend("wave", factory<WaveBackend>());
  register_backend("optimizer", factory<OptimizerBackend>());
  register_backend("msg", factory<MsgBackend>());
  register_backend("concurrent", factory<ConcurrentBackend>());
  register_backend("service", factory<ServiceBackend>());
  register_backend("fetch_inc", factory<FetchIncBackend>());
  register_backend("mcs", factory<McsBackend>());
  register_backend("combining_tree", factory<CombiningTreeBackend>());
  register_backend("diffracting_tree", factory<DiffractingTreeBackend>());
  register_backend("replay", factory<ReplayBackend>());
}

}  // namespace cn::engine
