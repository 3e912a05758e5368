// The sweep workloads: repeated engine::sweep_stats calls on one sweeper
// thread, each a sweep of a fixed number of simulator trials seeded from
// the workload seed and the call index.
//
//   sweep_wave_stream  B(8), 8 processes x 512 ops, c_max 3.0, wave
//                      interpreter, streaming checker (keep_trace=false);
//                      2 trials per call.
//   sweep_probe        the RunSpec default shape every probe bench uses:
//                      scalar interpreter, collected trace + batch
//                      analyze(), 8 x 4 ops; 64 trials per call.
//
// The untraced phase drives the registered "simulator" backend. The
// traced phase registers a twin backend that makes the same public layer
// calls (generate_workload, the interpreter, the checker) inside spans;
// its sweep reports must be byte-identical to the real backend's.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "core/constructions.hpp"
#include "engine/backend.hpp"
#include "engine/results.hpp"
#include "engine/sweep.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"
#include "spans.hpp"
#include "trace/consistency.hpp"
#include "trace/streaming.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace cn;

constexpr const char* kTracedBackend = "perfbench.simulator";

struct Shape {
  bool wave = false;  ///< sweep_wave_stream; else sweep_probe.
  std::uint64_t trials_per_call = 0;
  std::uint64_t tokens_per_trial = 0;
};

Shape shape_of(const std::string& workload) {
  if (workload == "sweep_wave_stream") return Shape{true, 2, 8 * 512};
  return Shape{false, 64, 8 * 4};
}

engine::SweepSpec make_sweep(const Shape& shape, const Network& net,
                             std::uint64_t seed, const std::string& backend) {
  engine::SweepSpec spec;
  spec.base.backend = backend;
  spec.base.net = &net;
  spec.base.seed = seed;
  if (shape.wave) {
    spec.base.processes = 8;
    spec.base.ops_per_process = 512;
    spec.base.c_max = 3.0;
    spec.base.wave_exec = true;
    spec.base.keep_trace = false;
  }
  spec.trials = shape.trials_per_call;
  spec.threads = 1;
  return spec;
}

// --- traced twin of the "simulator" backend ------------------------------
// The engine calls backends from the sweeper thread; the traced phase runs
// one sweeper thread, so the span log and counters below have one writer.
SpanLog* g_log = nullptr;
std::uint64_t g_trial = 0;
std::size_t g_peak_pending = 0;

class TracedSimulator final : public engine::TraceSource {
 public:
  std::string name() const override { return kTracedBackend; }

  engine::RunResult run(const engine::RunSpec& spec) const override {
    engine::RunContext ctx;
    return run(spec, ctx);
  }

  engine::RunResult run(const engine::RunSpec& spec,
                        engine::RunContext& ctx) const override {
    const std::uint64_t op = g_trial++;
    Scope trial(*g_log, Layer::kTrial, op);
    engine::RunResult out;
    TimedExecution exec = make_exec(spec, op);
    SimulationResult sim;
    {
      Scope s(*g_log, Layer::kInterpret, op);
      sim = spec.wave_exec ? simulate_wave(exec, ctx.arena)
                           : simulate(exec, ctx.arena);
    }
    if (!sim.ok()) {
      out.error = "simulation failed: " + sim.error;
      return out;
    }
    {
      Scope s(*g_log, Layer::kCheck, op);
      out.report = analyze(sim.trace);
    }
    out.trace = std::move(sim.trace);
    out.exec = std::move(exec);
    return out;
  }

  engine::RunResult run(const engine::RunSpec& spec, engine::RunContext& ctx,
                        TraceSink& sink) const override {
    const std::uint64_t op = g_trial++;
    Scope trial(*g_log, Layer::kTrial, op);
    engine::RunResult out;
    const TimedExecution exec = make_exec(spec, op);
    TimedSink timed(sink, *g_log, op);
    SimulationResult sim;
    {
      Scope s(*g_log, Layer::kInterpret, op);
      sim = spec.wave_exec ? simulate_wave_stream(exec, ctx.arena, timed)
                           : simulate_stream(exec, ctx.arena, timed);
    }
    if (!sim.ok()) out.error = "simulation failed: " + sim.error;
    if (const auto* sc = dynamic_cast<const StreamingConsistency*>(&sink)) {
      g_peak_pending = std::max(g_peak_pending, sc->peak_pending());
    }
    return out;
  }

 private:
  // Mirrors the simulator backend's RunSpec -> WorkloadSpec mapping.
  static TimedExecution make_exec(const engine::RunSpec& spec,
                                  std::uint64_t op) {
    Scope s(*g_log, Layer::kWorkload, op);
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
    return generate_workload(*spec.net, wl, rng);
  }
};

struct Phase {
  std::uint64_t trials = 0;
  std::uint64_t errors = 0;
  std::uint64_t bad_calls = 0;  ///< Calls whose counts did not add up.
  std::vector<double> slice_rate;  ///< Trials/s of each slice, at nominal
                                   ///< host speed.
  double slowdown = 1.0;           ///< Host slowdown over the phase.
  WindowFigures latency;           ///< Call times per 1 s window.
  std::uint64_t calls = 0;
  std::string first_report;     ///< to_json of call 0.
  std::string first_error;
};

/// Runs sweep calls 0, 1, 2, ... for `seconds` (at least one call), in
/// slices of about 50 ms each followed by a host-speed sample; each
/// slice's call times are divided by its slowdown. Throughput is the
/// median over slices; call latency is taken per 1 s window.
Phase run_phase(const Options& opt, const Shape& shape, const Network& net,
                const std::string& backend, double seconds, bool corrupt) {
  constexpr std::uint64_t kSliceNs = 50'000'000;
  constexpr unsigned kReferenceReps = 30;
  constexpr std::uint64_t kWindowNs = 1'000'000'000;
  constexpr std::uint64_t kMinCalls = 100;
  Phase ph;
  HostSpeed speed;
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  Windows windows(start, seconds, kWindowNs);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> slice;  // (t0, dt)
  std::uint64_t call = 0;
  do {
    slice.clear();
    const std::uint64_t slice_end = now_ns() + kSliceNs;
    do {
      const engine::SweepSpec spec =
          make_sweep(shape, net, engine::trial_seed(opt.seed, call), backend);
      if (g_log != nullptr) g_log->begin(Layer::kSweepCall, call);
      const std::uint64_t t0 = now_ns();
      engine::SweepStats st = engine::sweep_stats(spec);
      const std::uint64_t t1 = now_ns();
      if (g_log != nullptr) g_log->end(t1);
      slice.push_back({t0, t1 - t0});
      ph.trials += spec.trials;
      ph.errors += st.errors;
      if (ph.first_error.empty()) ph.first_error = st.first_error;
      if (corrupt && call == 0) ++st.total_tokens;
      if (st.completed != spec.trials ||
          st.total_tokens != spec.trials * shape.tokens_per_trial) {
        ++ph.bad_calls;
      }
      if (call == 0) ph.first_report = engine::to_json(st);
      ++call;
    } while (now_ns() < slice_end);
    const double slowdown = speed.sample(kReferenceReps);
    double busy = 0.0;
    for (const auto& [t0, dt] : slice) {
      const double scaled = static_cast<double>(dt) / slowdown;
      busy += scaled;
      windows.add(t0, static_cast<std::uint64_t>(scaled));
    }
    ph.calls += slice.size();
    ph.slice_rate.push_back(static_cast<double>(slice.size() *
                                                shape.trials_per_call) *
                            1e9 / busy);
  } while (now_ns() < deadline);
  ph.slowdown = speed.overall();
  ph.latency.add_all(windows, 1.0, kMinCalls);
  // A run too short for one full window still reports its calls.
  if (ph.latency.p50.empty()) ph.latency.add_all(windows, 1.0, 1);
  return ph;
}

std::string fnv1a_hex(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void check_phase(const Phase& ph, const char* what, Outcome& out) {
  out.attempted += ph.trials;
  out.failed += ph.errors;
  out.check(ph.errors == 0, std::string(what) + ": " +
                                std::to_string(ph.errors) +
                                " trials errored: " + ph.first_error);
  out.check(ph.bad_calls == 0,
            std::string(what) + ": " + std::to_string(ph.bad_calls) +
                " sweep calls with completed/total_tokens != trials x "
                "tokens per trial");
}

}  // namespace

void run_sweep_workload(const Options& opt, Outcome& out) {
  const Shape shape = shape_of(opt.workload);
  const std::uint64_t epoch = now_ns();

  // Set-up: network build plus a one-trial warm-up sweep, repeated; the
  // median is reported.
  std::shared_ptr<const Network> net;
  std::vector<double> setup_ns;
  HostSpeed speed;
  for (std::uint64_t r = 0; r < 51; ++r) {
    const std::uint64_t t0 = now_ns();
    auto built = std::make_shared<const Network>(make_bitonic(8));
    engine::SweepSpec warm = make_sweep(shape, *built, ~r, "simulator");
    warm.trials = 1;
    const engine::SweepStats st = engine::sweep_stats(warm);
    const auto dt = static_cast<double>(now_ns() - t0);
    setup_ns.push_back(dt / speed.sample(10));
    out.check(st.errors == 0, "warm-up sweep failed: " + st.first_error);
    net = std::move(built);
  }

  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  Phase plain = run_phase(opt, shape, *net, "simulator", untraced_s,
                          opt.corrupt);
  check_phase(plain, "untraced sweep", out);
  const double ops_per_s = quantile(plain.slice_rate, 0.5);
  const double per_trial_ns = 1e9 / ops_per_s;

  // Output checks on call 0: a re-run must reproduce the report byte for
  // byte, and so must the other interpreter and the other trace mode
  // (scalar vs wave, collect vs stream).
  {
    const engine::SweepSpec again =
        make_sweep(shape, *net, engine::trial_seed(opt.seed, 0), "simulator");
    out.check(engine::to_json(engine::sweep_stats(again)) == plain.first_report,
              "sweep report of call 0 differs between two runs of one seed");
    engine::SweepSpec flipped = again;
    flipped.base.wave_exec = !flipped.base.wave_exec;
    flipped.base.keep_trace = !flipped.base.keep_trace;
    out.check(
        engine::to_json(engine::sweep_stats(flipped)) == plain.first_report,
        "sweep report of call 0 differs between the scalar/collect and "
        "wave/stream paths");
  }
  out.notes.push_back("digest " + fnv1a_hex(plain.first_report));

  if (!opt.trace) {
    out.set("ops_per_s", ops_per_s, "1/s");
    out.set("latency_p50_us", plain.latency.run_p50() / 1e3, "us");
    out.set("latency_p99_us", plain.latency.run_p99() / 1e3, "us");
    out.set("setup_s", quantile(setup_ns, 0.50) / 1e9, "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.alias("sweep_trials_per_s", ops_per_s, "1/s");
    out.alias("failed_frac",
              static_cast<double>(plain.errors) /
                  static_cast<double>(plain.trials),
              "ratio");
    out.notes.push_back("samples sweep_calls=" + std::to_string(plain.calls) +
                        " windows=" + std::to_string(plain.latency.p50.size()) +
                        " trials_per_call=" +
                        std::to_string(shape.trials_per_call));
    return;
  }

  // --- traced phase ---------------------------------------------------
  static const bool registered = engine::register_backend(
      kTracedBackend, [] { return std::make_unique<TracedSimulator>(); });
  out.check(registered, "could not register the traced backend");
  SpanLog log;
  g_log = &log;
  g_trial = 0;
  g_peak_pending = 0;
  Phase traced = run_phase(opt, shape, *net, kTracedBackend,
                                 opt.seconds / 2, false);
  g_log = nullptr;
  check_phase(traced, "traced sweep", out);
  out.check(traced.first_report == plain.first_report,
            "traced twin backend's report differs from the simulator's");

  // Span totals are scaled to nominal host speed by the phase's slowdown.
  const double n = static_cast<double>(traced.trials);
  const auto total = [&](Layer layer) {
    return static_cast<double>(log.total_ns(layer)) / traced.slowdown;
  };
  const double workload = total(Layer::kWorkload);
  const double check = total(Layer::kCheck);
  // The streaming checker runs inside the interpreter's sink calls; batch
  // analyze() runs after it.
  const double interpret = total(Layer::kInterpret) - (shape.wave ? check : 0.0);
  const double calls = total(Layer::kSweepCall);
  const double engine_ns = calls - workload - interpret - check;
  const double steps = n * static_cast<double>(shape.tokens_per_trial) *
                       static_cast<double>(net->depth() + 1);
  out.set("sim.workload.us_per_trial", workload / n / 1e3, "us");
  out.set("sim.interpret.us_per_trial", interpret / n / 1e3, "us");
  out.set("sim.interpret.steps_per_s", steps / (interpret / 1e9), "1/s");
  out.set("trace.check.us_per_trial", check / n / 1e3, "us");
  if (shape.wave) {
    out.set("trace.check.peak_pending", static_cast<double>(g_peak_pending),
            "count");
  }
  out.set("engine.overhead.us_per_trial", engine_ns / n / 1e3, "us");
  const double traced_per_trial = 1e9 / quantile(traced.slice_rate, 0.5);
  out.set("trace.overhead_pct", (traced_per_trial / per_trial_ns - 1.0) * 100,
          "%");
  out.set("trace.coverage_pct",
          (workload + interpret + check + engine_ns) / n / per_trial_ns * 100,
          "%");
  if (!opt.spans_path.empty()) {
    out.check(write_spans(opt.spans_path, {&log}, epoch),
              "could not write spans to " + opt.spans_path);
  }
}

}  // namespace perfbench
