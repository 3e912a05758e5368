// Fault-injection layer: zero-fault identity (the fault code must be
// invisible until asked for), deterministic faulted replays, degradation
// accounting, the sweep watchdog (a hung backend is abandoned as a
// "timeout" without disturbing the other trials), bounded deterministic
// retry, and the error taxonomy end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "concurrent/concurrent_network.hpp"
#include "concurrent/harness.hpp"
#include "core/constructions.hpp"
#include "engine/engine.hpp"
#include "fault/fault.hpp"
#include "msg/service.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"
#include "trace/sink.hpp"
#include "util/rng.hpp"

namespace {

using namespace cn;

// ---------------------------------------------------------------------
// Mock backends for watchdog / retry / taxonomy tests. Registered once;
// behavior is steered through the g_* globals, which each test sets
// before sweeping (the sweeper only reads them).
// ---------------------------------------------------------------------
std::atomic<std::uint64_t> g_hang_seed{0};  ///< Seed the hang mock sleeps on.
std::set<std::uint64_t> g_flaky_fail_seeds;  ///< Seeds the flaky mock fails on.

engine::RunResult tiny_ok_result() {
  engine::RunResult out;
  for (std::uint64_t i = 0; i < 2; ++i) {
    TokenRecord rec;
    rec.token = static_cast<TokenId>(i);
    rec.process = static_cast<ProcessId>(i);
    rec.source = 0;
    rec.sink = 0;
    rec.value = i;
    rec.t_in = static_cast<double>(2 * i);
    rec.t_out = static_cast<double>(2 * i + 1);
    rec.first_seq = 2 * i;
    rec.last_seq = 2 * i + 1;
    out.trace.push_back(rec);
  }
  return out;
}

class HangMockBackend final : public engine::TraceSource {
 public:
  std::string name() const override { return "hang_mock"; }
  engine::RunResult run(const engine::RunSpec& spec) const override {
    if (spec.seed == g_hang_seed.load()) {
      // A genuinely hung trial: the watchdog must abandon this thread.
      // It sleeps far past any test horizon and is killed with the
      // process while still blocked.
      std::this_thread::sleep_for(std::chrono::hours(1));
    }
    return tiny_ok_result();
  }
};

class FlakyMockBackend final : public engine::TraceSource {
 public:
  std::string name() const override { return "flaky_mock"; }
  engine::RunResult run(const engine::RunSpec& spec) const override {
    if (g_flaky_fail_seeds.count(spec.seed) > 0) {
      engine::RunResult out;
      out.error = "transient failure (mock)";
      return out;
    }
    return tiny_ok_result();
  }
};

class ThrowingMockBackend final : public engine::TraceSource {
 public:
  std::string name() const override { return "throwing_mock"; }
  engine::RunResult run(const engine::RunSpec&) const override {
    throw std::runtime_error("kaboom");
  }
};

void register_mocks() {
  static const bool once = [] {
    engine::register_backend(
        "hang_mock", [] { return std::make_unique<HangMockBackend>(); });
    engine::register_backend(
        "flaky_mock", [] { return std::make_unique<FlakyMockBackend>(); });
    engine::register_backend(
        "throwing_mock", [] { return std::make_unique<ThrowingMockBackend>(); });
    return true;
  }();
  (void)once;
}

// ---------------------------------------------------------------------
// FaultStream / fault_seed
// ---------------------------------------------------------------------
TEST(FaultStream, ZeroProbabilityConsumesNoRandomness) {
  fault::FaultPlan plan;
  plan.seed = 7;
  fault::FaultStream a(plan, 42);
  fault::FaultStream b(plan, 42);
  // A thousand zero-probability flips must not advance the stream.
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(a.flip(0.0));
  EXPECT_EQ(a.pick(0, 1u << 30), b.pick(0, 1u << 30));
}

TEST(FaultStream, SeedDerivationSeparatesStreams) {
  EXPECT_EQ(fault::fault_seed(1, 2, 0), fault::fault_seed(1, 2, 0));
  EXPECT_NE(fault::fault_seed(1, 2, 0), fault::fault_seed(1, 3, 0));
  EXPECT_NE(fault::fault_seed(1, 2, 0), fault::fault_seed(2, 2, 0));
  EXPECT_NE(fault::fault_seed(1, 2, 0), fault::fault_seed(1, 2, 1));
}

TEST(FaultPlan, ActivityPredicates) {
  fault::FaultPlan plan;
  EXPECT_FALSE(plan.active());
  plan.p_token_loss = 0.5;
  EXPECT_FALSE(plan.active()) << "disabled plan must stay inert";
  plan.enabled = true;
  EXPECT_TRUE(plan.active());
  EXPECT_TRUE(plan.sim_faults());
  EXPECT_FALSE(plan.thread_faults());
}

// ---------------------------------------------------------------------
// Degradation accounting
// ---------------------------------------------------------------------
Trace trace_with_values(const std::vector<Value>& values,
                        std::uint32_t fan_out) {
  Trace t;
  for (std::size_t i = 0; i < values.size(); ++i) {
    TokenRecord rec;
    rec.token = static_cast<TokenId>(i);
    rec.value = values[i];
    rec.sink = static_cast<std::uint32_t>(values[i] % fan_out);
    t.push_back(rec);
  }
  return t;
}

TEST(Degradation, CleanTraceHasNoViolations) {
  const fault::Degradation d =
      fault::degradation(trace_with_values({0, 1, 2, 3, 4, 5, 6, 7}, 4), 4);
  EXPECT_EQ(d.counting_violation, 0.0);
  EXPECT_LE(d.smoothness_gap, 1.0);
  EXPECT_EQ(d.smoothness_violation, 0.0);
}

TEST(Degradation, MissingValueViolatesCounting) {
  // Values {0,1,3,4}: 2 is missing -> not the set {0..3}.
  const fault::Degradation d =
      fault::degradation(trace_with_values({0, 1, 3, 4}, 4), 4);
  EXPECT_EQ(d.counting_violation, 1.0);
}

TEST(Degradation, SinkSkewViolatesSmoothness) {
  // All four tokens exit sink 0 (values 0, 4, 8, 12 with fan_out 4):
  // sink 0 count 4, sinks 1..3 count 0 -> gap 4 > 1.
  const fault::Degradation d =
      fault::degradation(trace_with_values({0, 4, 8, 12}, 4), 4);
  EXPECT_EQ(d.smoothness_gap, 4.0);
  EXPECT_EQ(d.smoothness_violation, 1.0);
  EXPECT_EQ(d.counting_violation, 1.0);  // {0,4,8,12} != {0,1,2,3}
}

// ---------------------------------------------------------------------
// Faulted interpreter: zero-fault identity and deterministic damage
// ---------------------------------------------------------------------
TEST(FaultedSim, EmptyOverlayMatchesSimulate) {
  for (const std::uint64_t seed : {1ull, 99ull, 0xBEEFull}) {
    const Network net = make_bitonic(8);
    WorkloadSpec wl;
    wl.processes = 6;
    wl.tokens_per_process = 5;
    wl.c_max = 2.75;
    Xoshiro256 rng(seed);
    const TimedExecution exec = generate_workload(net, wl, rng);

    const SimulationResult ref = simulate(exec);
    ASSERT_TRUE(ref.ok());

    SimFaults none;
    none.lost_before_hop.assign(exec.plans.size(), kCompletes);
    none.stuck.assign(net.num_balancers(), false);
    SimArena arena;
    const SimulationResult faulted = simulate(exec, none, arena);
    ASSERT_TRUE(faulted.ok()) << faulted.error;

    ASSERT_EQ(faulted.trace.size(), ref.trace.size());
    for (std::size_t i = 0; i < ref.trace.size(); ++i) {
      EXPECT_EQ(faulted.trace[i].token, ref.trace[i].token);
      EXPECT_EQ(faulted.trace[i].process, ref.trace[i].process);
      EXPECT_EQ(faulted.trace[i].sink, ref.trace[i].sink);
      EXPECT_EQ(faulted.trace[i].value, ref.trace[i].value);
      EXPECT_DOUBLE_EQ(faulted.trace[i].t_in, ref.trace[i].t_in);
      EXPECT_DOUBLE_EQ(faulted.trace[i].t_out, ref.trace[i].t_out);
      EXPECT_EQ(faulted.trace[i].first_seq, ref.trace[i].first_seq);
      EXPECT_EQ(faulted.trace[i].last_seq, ref.trace[i].last_seq);
    }
  }
}

/// A default SimFaults is empty: its stuck set and its doom list are
/// shorter than the network and the schedule, and a balancer or plan past
/// their ends is neither stuck nor doomed. All four faulted entry points
/// then match their pristine twins, collected and streamed: on B(8), and
/// on a non-uniform network, which the wave body hands to the scalar body
/// (whose error and partial emission must match too).
TEST(FaultedSim, DefaultOverlayMatchesPristineTwins) {
  const SimFaults none;
  ASSERT_TRUE(none.empty());
  const auto streamed = [](const auto& run) {
    CollectSink sink;
    SimulationResult res = run(sink);
    res.trace = sink.trace();
    return res;
  };
  const auto expect_same = [](const SimulationResult& want,
                              const SimulationResult& got,
                              const std::string& what) {
    EXPECT_EQ(got.error, want.error) << what;
    EXPECT_EQ(got.trace, want.trace) << what;
  };
  for (const Network& net : {make_bitonic(8), make_brick_wall(4, 3)}) {
    WorkloadSpec wl;
    wl.processes = 6;
    wl.tokens_per_process = 8;
    wl.c_max = 7.0;
    Xoshiro256 rng(3);
    const TimedExecution exec = generate_workload(net, wl, rng);
    SimArena arena;
    const std::string what = net.name();
    expect_same(simulate(exec, arena), simulate(exec, none, arena),
                what + " simulate");
    expect_same(simulate_wave(exec, arena), simulate_wave(exec, none, arena),
                what + " simulate_wave");
    expect_same(
        streamed([&](TraceSink& s) { return simulate_stream(exec, arena, s); }),
        streamed([&](TraceSink& s) {
          return simulate_stream(exec, none, arena, s);
        }),
        what + " simulate_stream");
    expect_same(streamed([&](TraceSink& s) {
                  return simulate_wave_stream(exec, arena, s);
                }),
                streamed([&](TraceSink& s) {
                  return simulate_wave_stream(exec, none, arena, s);
                }),
                what + " simulate_wave_stream");
  }
}

TEST(FaultedSim, DrawIsDeterministic) {
  const Network net = make_bitonic(8);
  WorkloadSpec wl;
  wl.processes = 8;
  wl.tokens_per_process = 6;
  Xoshiro256 rng(5);
  const TimedExecution exec = generate_workload(net, wl, rng);
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 3;
  plan.p_token_loss = 0.2;
  plan.p_stuck_balancer = 0.1;
  plan.p_process_crash = 0.15;
  const SimFaults a = fault::draw_sim_faults(net, exec, plan, 77);
  const SimFaults b = fault::draw_sim_faults(net, exec, plan, 77);
  EXPECT_EQ(a.lost_before_hop, b.lost_before_hop);
  EXPECT_EQ(a.stuck, b.stuck);
  EXPECT_EQ(a.tokens_lost, b.tokens_lost);
  EXPECT_EQ(a.tokens_not_issued, b.tokens_not_issued);
  EXPECT_EQ(a.balancers_stuck, b.balancers_stuck);
  EXPECT_EQ(a.processes_crashed, b.processes_crashed);
  // And a different run seed draws different faults.
  const SimFaults c = fault::draw_sim_faults(net, exec, plan, 78);
  EXPECT_NE(a.lost_before_hop, c.lost_before_hop);
}

// A crash dooms one of the process's own plans and never issues the
// plans after it. The overlay is indexed by plan, so each process's
// entries are read off in its plan order.
TEST(FaultedSim, CrashDoomsOneOwnPlanThenSilencesTheProcess) {
  const Network net = make_bitonic(8);
  WorkloadSpec wl;
  wl.processes = 6;
  wl.tokens_per_process = 10;
  Xoshiro256 rng(9);
  const TimedExecution exec = generate_workload(net, wl, rng);
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.p_process_crash = 1.0;
  const SimFaults f = fault::draw_sim_faults(net, exec, plan, 4);
  ASSERT_EQ(f.lost_before_hop.size(), exec.plans.size());
  EXPECT_EQ(f.processes_crashed, wl.processes);
  EXPECT_EQ(f.tokens_lost, wl.processes);
  std::map<ProcessId, std::vector<std::uint32_t>> by_process;
  for (std::size_t i = 0; i < exec.plans.size(); ++i) {
    by_process[exec.plans[i].process].push_back(f.lost_before_hop[i]);
  }
  for (const auto& [process, dooms] : by_process) {
    std::size_t k = 0;
    while (k < dooms.size() && dooms[k] == kCompletes) ++k;
    ASSERT_LT(k, dooms.size()) << "process " << process << " has no victim";
    EXPECT_GE(dooms[k], 1u) << "process " << process;
    EXPECT_LE(dooms[k], net.depth()) << "process " << process;
    for (++k; k < dooms.size(); ++k) {
      EXPECT_EQ(dooms[k], 0u) << "process " << process;
    }
  }
}

TEST(FaultedSim, LossRemovesExactlyTheDoomedTokens) {
  const Network net = make_bitonic(8);
  WorkloadSpec wl;
  wl.processes = 8;
  wl.tokens_per_process = 8;
  Xoshiro256 rng(11);
  const TimedExecution exec = generate_workload(net, wl, rng);
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.p_token_loss = 0.25;
  const SimFaults faults = fault::draw_sim_faults(net, exec, plan, 11);
  ASSERT_GT(faults.tokens_lost, 0u);
  SimArena arena;
  const SimulationResult res = simulate(exec, faults, arena);
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_EQ(res.trace.size(),
            exec.plans.size() - faults.tokens_lost - faults.tokens_not_issued);
  // Completed tokens are reported in plan order with their own ids.
  std::set<TokenId> doomed;
  for (std::size_t i = 0; i < faults.lost_before_hop.size(); ++i) {
    if (faults.lost_before_hop[i] != kCompletes) {
      doomed.insert(exec.plans[i].token);
    }
  }
  for (const TokenRecord& rec : res.trace) {
    EXPECT_EQ(doomed.count(rec.token), 0u);
  }
}

/// Hand model of a stuck balancer: B(2) is a single (2,2) balancer, and
/// wedging it at its initial position sends every token out of port 0 to
/// counter 0, which hands out 0, 2, 4, ... in counter-crossing (last_seq)
/// order. Checked on both interpreter bodies, independently of the
/// pristine kernels.
TEST(FaultedSim, StuckBalancerRoutesEveryTokenToSinkZero) {
  const Network net = make_bitonic(2);
  ASSERT_EQ(net.num_balancers(), 1u);
  WorkloadSpec wl;
  wl.processes = 4;
  wl.tokens_per_process = 6;
  wl.c_max = 2.5;
  Xoshiro256 rng(21);
  const TimedExecution exec = generate_workload(net, wl, rng);
  SimFaults stuck;
  stuck.lost_before_hop.assign(exec.plans.size(), kCompletes);
  stuck.stuck.assign(1, true);
  stuck.balancers_stuck = 1;

  SimArena arena;
  const SimulationResult scalar = simulate(exec, stuck, arena);
  const SimulationResult wave = simulate_wave(exec, stuck, arena);
  for (const SimulationResult* res : {&scalar, &wave}) {
    ASSERT_TRUE(res->ok()) << res->error;
    ASSERT_EQ(res->trace.size(), exec.plans.size());
    Trace by_exit = res->trace;
    std::sort(by_exit.begin(), by_exit.end(),
              [](const TokenRecord& a, const TokenRecord& b) {
                return a.last_seq < b.last_seq;
              });
    for (std::size_t k = 0; k < by_exit.size(); ++k) {
      EXPECT_EQ(by_exit[k].sink, 0u) << "exit " << k;
      EXPECT_EQ(by_exit[k].value, 2 * k) << "exit " << k;
    }
  }
  EXPECT_EQ(scalar.trace, wave.trace);
}

// ---------------------------------------------------------------------
// Backend-level zero-fault identity and deterministic faulted replays
// ---------------------------------------------------------------------
TEST(FaultBackends, EnabledZeroPlanIsByteIdenticalToDisabled) {
  engine::RunSpec pristine;
  pristine.network = "bitonic";
  pristine.width = 8;
  pristine.seed = 0xABCD;
  const engine::RunResult base = engine::run_backend(pristine);
  ASSERT_TRUE(base.ok()) << base.error;

  engine::RunSpec zeroed = pristine;
  zeroed.fault.enabled = true;  // enabled, but every probability is 0
  const engine::RunResult res = engine::run_backend(zeroed);
  ASSERT_TRUE(res.ok()) << res.error;

  ASSERT_EQ(res.trace.size(), base.trace.size());
  for (std::size_t i = 0; i < base.trace.size(); ++i) {
    EXPECT_EQ(res.trace[i].value, base.trace[i].value);
    EXPECT_DOUBLE_EQ(res.trace[i].t_in, base.trace[i].t_in);
    EXPECT_DOUBLE_EQ(res.trace[i].t_out, base.trace[i].t_out);
  }
  EXPECT_EQ(res.report.f_nl, base.report.f_nl);
  EXPECT_EQ(res.report.f_nsc, base.report.f_nsc);
  // The degradation report is present and clean at p = 0...
  EXPECT_EQ(res.metric("counting_violation", -1.0), 0.0);
  EXPECT_EQ(res.metric("smoothness_violation", -1.0), 0.0);
  // ...and absent (not merely zero) when the plan is disabled, so
  // default JSON output stays byte-identical to the pre-fault engine.
  EXPECT_EQ(base.metrics.count("counting_violation"), 0u);
}

TEST(FaultBackends, FaultedSimulatorReplaysDeterministically) {
  engine::RunSpec spec;
  spec.network = "bitonic";
  spec.width = 8;
  spec.seed = 2024;
  spec.fault.enabled = true;
  spec.fault.p_token_loss = 0.15;
  spec.fault.p_stuck_balancer = 0.1;
  const engine::RunResult a = engine::run_backend(spec);
  const engine::RunResult b = engine::run_backend(spec);
  ASSERT_TRUE(a.ok()) << a.error;
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].token, b.trace[i].token);
    EXPECT_EQ(a.trace[i].value, b.trace[i].value);
    EXPECT_DOUBLE_EQ(a.trace[i].t_out, b.trace[i].t_out);
  }
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_LT(a.trace.size(), 8u * 4u);  // something was actually lost
  EXPECT_GT(a.metric("fault_tokens_lost") + a.metric("fault_balancers_stuck"),
            0.0);
}

TEST(FaultBackends, MsgFaultsAreAccountedAndDeterministic) {
  engine::RunSpec spec;
  spec.backend = "msg";
  spec.network = "bitonic";
  spec.width = 4;
  spec.processes = 6;
  spec.ops_per_process = 8;
  spec.seed = 31;
  spec.fault.enabled = true;
  spec.fault.p_token_loss = 0.2;
  spec.fault.p_msg_duplicate = 0.1;
  spec.fault.p_process_crash = 0.3;
  const engine::RunResult a = engine::run_backend(spec);
  const engine::RunResult b = engine::run_backend(spec);
  ASSERT_TRUE(a.ok()) << a.error;
  EXPECT_EQ(a.trace.size(), b.trace.size());
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_LT(a.trace.size(), 48u);
  EXPECT_GT(a.metric("fault_tokens_lost"), 0.0);
}

TEST(FaultBackends, ConcurrentFaultMixIsDeterministic) {
  const Network topo = make_bitonic(4);
  ConcurrentRunSpec spec;
  spec.threads = 4;
  spec.ops_per_thread = 50;
  spec.seed = 9;
  spec.fault.enabled = true;
  spec.fault.p_thread_stall = 0.05;
  spec.fault.stall_ns = 1000;
  spec.fault.p_thread_abandon = 0.1;
  spec.fault.p_process_crash = 0.5;

  ConcurrentNetwork net_a(topo);
  const ConcurrentRunResult a = run_recorded(net_a, spec);
  ConcurrentNetwork net_b(topo);
  const ConcurrentRunResult b = run_recorded(net_b, spec);
  ASSERT_TRUE(a.ok()) << a.error;
  // Live interleaving varies, but the injected mix must not.
  EXPECT_EQ(a.stalls, b.stalls);
  EXPECT_EQ(a.tokens_abandoned, b.tokens_abandoned);
  EXPECT_EQ(a.threads_crashed, b.threads_crashed);
  EXPECT_EQ(a.trace.size(), b.trace.size());
  EXPECT_GT(a.tokens_abandoned + a.threads_crashed, 0u);
  EXPECT_EQ(a.total_ops, a.trace.size());

  // The baseline counters run the same loop and draw the same mix.
  for (const char* backend :
       {"fetch_inc", "mcs", "combining_tree", "diffracting_tree"}) {
    engine::RunSpec es;
    es.backend = backend;
    es.threads = spec.threads;
    es.ops_per_thread = spec.ops_per_thread;
    es.seed = spec.seed;
    es.fault = spec.fault;
    const engine::RunResult ea = engine::run_backend(es);
    const engine::RunResult eb = engine::run_backend(es);
    ASSERT_TRUE(ea.ok()) << backend << ": " << ea.error;
    ASSERT_TRUE(eb.ok()) << backend << ": " << eb.error;
    for (const char* m : {"fault_stalls", "fault_values_lost",
                          "fault_threads_crashed", "total_ops"}) {
      EXPECT_EQ(ea.metric(m), eb.metric(m)) << backend << " " << m;
    }
    EXPECT_EQ(ea.metric("total_ops"), static_cast<double>(ea.trace.size()))
        << backend;
    EXPECT_GT(ea.metric("fault_values_lost") +
                  ea.metric("fault_threads_crashed"),
              0.0)
        << backend;
  }
}

TEST(FaultSweep, FaultedAggregatesDeterministicAcrossThreadCounts) {
  engine::SweepSpec sweep;
  sweep.base.network = "bitonic";
  sweep.base.width = 8;
  sweep.base.seed = 0xF00D;
  sweep.base.fault.enabled = true;
  sweep.base.fault.p_token_loss = 0.1;
  sweep.base.fault.p_stuck_balancer = 0.05;
  sweep.trials = 48;

  sweep.threads = 1;
  const engine::SweepStats one = engine::sweep_stats(sweep);
  sweep.threads = 6;
  const engine::SweepStats six = engine::sweep_stats(sweep);
  EXPECT_EQ(six.completed, one.completed);
  EXPECT_EQ(six.errors, one.errors);
  EXPECT_EQ(six.metric_sums, one.metric_sums);
  EXPECT_EQ(engine::to_json(six), engine::to_json(one));
  EXPECT_GT(one.metric_sums.at("counting_violation"), 0.0);
}

// ---------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------
TEST(FaultSweep, WatchdogAbandonsHungTrialWithoutDisturbingOthers) {
  register_mocks();
  const std::uint64_t base_seed = 0x5EED;
  // Trial 1 (of 4) hangs; the others return the tiny mock trace. With
  // retries off, the timeout must surface exactly once.
  g_hang_seed.store(engine::trial_seed(base_seed, 1));

  engine::SweepSpec sweep;
  sweep.base.backend = "hang_mock";
  sweep.base.seed = base_seed;
  sweep.trials = 4;
  sweep.threads = 2;
  sweep.timeout_ms = 200;
  const engine::SweepStats stats = engine::sweep_stats(sweep);
  g_hang_seed.store(0);

  EXPECT_EQ(stats.trials, 4u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.errors, 1u);
  ASSERT_EQ(stats.error_table.count("timeout"), 1u);
  EXPECT_EQ(stats.error_table.at("timeout").count, 1u);
  EXPECT_EQ(stats.error_table.at("timeout").first_trial, 1u);
  EXPECT_NE(stats.first_error.find("watchdog"), std::string::npos);
  // The surviving trials' aggregate is exactly 3 mock traces.
  EXPECT_EQ(stats.total_tokens, 3u * 2u);
}

TEST(FaultSweep, WatchdogPassesFastTrialsUntouched) {
  register_mocks();
  g_hang_seed.store(0);  // no trial seed is ever 0 in practice; none hang
  engine::SweepSpec sweep;
  sweep.base.backend = "hang_mock";
  sweep.base.seed = 123;
  sweep.trials = 6;
  sweep.threads = 3;
  sweep.timeout_ms = 5000;
  const engine::SweepStats stats = engine::sweep_stats(sweep);
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_TRUE(stats.error_table.empty());
}

// ---------------------------------------------------------------------
// Retry
// ---------------------------------------------------------------------
TEST(FaultSweep, RetrySeedAttemptZeroIsTrialSeed) {
  for (std::uint64_t t = 0; t < 16; ++t) {
    EXPECT_EQ(engine::retry_seed(7, t, 0), engine::trial_seed(7, t));
    EXPECT_NE(engine::retry_seed(7, t, 1), engine::trial_seed(7, t));
    EXPECT_NE(engine::retry_seed(7, t, 1), engine::retry_seed(7, t, 2));
  }
}

TEST(FaultSweep, RetryRecoversTransientFailuresDeterministically) {
  register_mocks();
  const std::uint64_t base_seed = 0xF1A2;
  const std::uint64_t trials = 8;
  g_flaky_fail_seeds.clear();
  for (std::uint64_t t = 0; t < trials; ++t) {
    // Every first attempt fails; every retry succeeds.
    g_flaky_fail_seeds.insert(engine::retry_seed(base_seed, t, 0));
  }

  engine::SweepSpec sweep;
  sweep.base.backend = "flaky_mock";
  sweep.base.seed = base_seed;
  sweep.trials = trials;
  sweep.threads = 4;
  sweep.max_retries = 1;
  const engine::SweepStats stats = engine::sweep_stats(sweep);

  EXPECT_EQ(stats.completed, trials);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.retried_trials, trials);
  EXPECT_EQ(stats.total_retries, trials);

  // Without retries the same sweep fails wholesale — and the retry
  // accounting fields stay out of the JSON when nothing was retried.
  sweep.max_retries = 0;
  const engine::SweepStats no_retry = engine::sweep_stats(sweep);
  EXPECT_EQ(no_retry.errors, trials);
  EXPECT_EQ(no_retry.retried_trials, 0u);
  EXPECT_EQ(engine::to_json(no_retry).find("retried_trials"),
            std::string::npos);
  g_flaky_fail_seeds.clear();
}

TEST(FaultSweep, RetriesAreNotWastedOnInvalidSpecs) {
  engine::SweepSpec sweep;
  sweep.base.network = "bitonic";
  sweep.base.width = 6;  // not a power of two: spec_invalid every time
  sweep.trials = 5;
  sweep.threads = 2;
  sweep.max_retries = 3;
  const engine::SweepStats stats = engine::sweep_stats(sweep);
  EXPECT_EQ(stats.errors, 5u);
  EXPECT_EQ(stats.retried_trials, 0u);
  EXPECT_EQ(stats.total_retries, 0u);
  ASSERT_EQ(stats.error_table.count("spec_invalid"), 1u);
  EXPECT_EQ(stats.error_table.at("spec_invalid").count, 5u);
}

// ---------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------
TEST(FaultTaxonomy, ThrowingBackendIsCaughtAndClassified) {
  register_mocks();
  engine::RunSpec spec;
  spec.backend = "throwing_mock";
  const engine::RunResult res = engine::run_backend(spec);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.error_kind, engine::ErrorKind::kBackendError);
  EXPECT_NE(res.error.find("kaboom"), std::string::npos);

  engine::SweepSpec sweep;
  sweep.base = spec;
  sweep.trials = 3;
  sweep.threads = 2;
  const engine::SweepStats stats = engine::sweep_stats(sweep);
  ASSERT_EQ(stats.error_table.count("backend_error"), 1u);
  EXPECT_EQ(stats.error_table.at("backend_error").count, 3u);
}

TEST(FaultTaxonomy, InvalidSpecsAreClassifiedNotRun) {
  engine::RunSpec msg_spec;
  msg_spec.backend = "msg";
  msg_spec.network = "bitonic";
  msg_spec.width = 4;
  msg_spec.c_min = 3.0;
  msg_spec.c_max = 2.0;  // inverted latency envelope
  const engine::RunResult msg_res = engine::run_backend(msg_spec);
  EXPECT_FALSE(msg_res.ok());
  EXPECT_EQ(msg_res.error_kind, engine::ErrorKind::kSpecInvalid);
  EXPECT_NE(msg_res.error.find("c_min > c_max"), std::string::npos);

  // Real-thread backends check their section up front, recorded or not.
  struct BadSection {
    const char* want;
    std::uint32_t threads;
    std::uint64_t ops_per_thread, hop_min_ns, hop_max_ns;
  };
  const BadSection bad_sections[] = {
      {"threads == 0", 0, 4, 0, 0},
      {"ops_per_thread == 0", 2, 0, 0, 0},
      {"inverted pacing envelope", 2, 4, 100, 10},
  };
  for (const char* backend : {"concurrent", "fetch_inc"}) {
    for (const bool recorded : {true, false}) {
      for (const BadSection& bad : bad_sections) {
        engine::RunSpec spec;
        spec.backend = backend;
        spec.network = "bitonic";
        spec.width = 4;
        spec.record_trace = recorded;
        spec.threads = bad.threads;
        spec.ops_per_thread = bad.ops_per_thread;
        spec.hop_delay_min_ns = bad.hop_min_ns;
        spec.hop_delay_max_ns = bad.hop_max_ns;
        const engine::RunResult res = engine::run_backend(spec);
        EXPECT_FALSE(res.ok()) << backend << " recorded=" << recorded
                               << ": " << bad.want;
        EXPECT_EQ(res.error_kind, engine::ErrorKind::kSpecInvalid)
            << backend << " recorded=" << recorded << ": " << bad.want;
        EXPECT_NE(res.error.find(bad.want), std::string::npos)
            << backend << " recorded=" << recorded << ": " << res.error;
      }
    }
  }

  // The simulated backends check their schedule once, collecting or
  // streaming: an empty schedule, a negative or inverted wire-delay
  // envelope, a heterogeneous schedule whose operations cannot advance
  // time (it would never end) and an inapplicable wave construction are
  // spec-invalid.
  struct BadSchedule {
    const char* backend;
    const char* want;
    void (*edit)(engine::RunSpec&);
  };
  const BadSchedule bad_schedules[] = {
      {"simulator", "no operations",
       [](engine::RunSpec& s) { s.processes = 0; }},
      {"simulator", "no operations",
       [](engine::RunSpec& s) { s.ops_per_process = 0; }},
      {"sim_burst", "no operations", [](engine::RunSpec& s) { s.bursts = 0; }},
      {"sim_burst", "no operations",
       [](engine::RunSpec& s) { s.burst_size = 0; }},
      {"sim_heterogeneous", "no operations",
       [](engine::RunSpec& s) { s.horizon = 0.0; }},
      {"sim_heterogeneous", "operations take no time",
       [](engine::RunSpec& s) {
         s.c_min = 0.0;
         s.c_max = 0.0;
       }},
      {"sim_heterogeneous", "negative local delay",
       [](engine::RunSpec& s) { s.tortoise_delay = -1.0; }},
      {"sim_heterogeneous", "non-finite local delay",
       [](engine::RunSpec& s) {
         s.hare_delay = std::numeric_limits<double>::quiet_NaN();
       }},
      // A NaN horizon goes through the same finiteness check as an
      // infinite one, which without the check would grow the schedule
      // until memory ran out.
      {"sim_heterogeneous", "non-finite local delay or horizon",
       [](engine::RunSpec& s) {
         s.horizon = std::numeric_limits<double>::quiet_NaN();
       }},
      {"optimizer", "no operations",
       [](engine::RunSpec& s) { s.opt_iterations = 0; }},
      {"optimizer", "no operations",
       [](engine::RunSpec& s) { s.opt_restarts = 0; }},
      {"simulator", "c_min > c_max",
       [](engine::RunSpec& s) {
         s.c_min = 3.0;
         s.c_max = 1.0;
       }},
      {"simulator", "negative latency",
       [](engine::RunSpec& s) { s.c_min = -1.0; }},
      {"wave", "negative latency", [](engine::RunSpec& s) { s.c_min = -1.0; }},
      {"wave", "split level out of range",
       [](engine::RunSpec& s) { s.ell = 0; }},
      {"wave", "split level out of range",
       [](engine::RunSpec& s) { s.ell = 4; }},
      {"wave", "fan-in == fan-out",
       [](engine::RunSpec& s) { s.network = "counting_tree"; }},
  };
  for (const BadSchedule& bad : bad_schedules) {
    for (const bool keep_trace : {true, false}) {
      engine::RunSpec spec;
      spec.backend = bad.backend;
      spec.network = "bitonic";
      spec.width = 8;
      spec.opt_iterations = 20;
      spec.keep_trace = keep_trace;
      bad.edit(spec);
      const engine::RunResult res = engine::run_backend(spec);
      EXPECT_FALSE(res.ok()) << bad.backend << " keep_trace=" << keep_trace
                             << ": " << bad.want;
      EXPECT_EQ(res.error_kind, engine::ErrorKind::kSpecInvalid)
          << bad.backend << " keep_trace=" << keep_trace << ": " << res.error;
      EXPECT_NE(res.error.find(bad.want), std::string::npos)
          << bad.backend << " keep_trace=" << keep_trace << ": " << res.error;
    }
  }

  // A non-finite wire-delay bound is spec-invalid wherever one is taken.
  // NaN compares false against every bound, so the inverted-envelope and
  // negative-latency checks alone would let it run.
  for (const char* backend : {"simulator", "sim_burst", "sim_heterogeneous",
                              "wave", "optimizer", "msg"}) {
    for (const bool keep_trace : {true, false}) {
      for (const bool nan_c_max : {true, false}) {
        engine::RunSpec spec;
        spec.backend = backend;
        spec.network = "bitonic";
        spec.width = 8;
        spec.opt_iterations = 20;
        spec.keep_trace = keep_trace;
        if (nan_c_max) {
          // The wave backend's c_max is wave_c_max.
          (spec.backend == "wave" ? spec.wave_c_max : spec.c_max) =
              std::numeric_limits<double>::quiet_NaN();
        } else {
          spec.c_min = std::numeric_limits<double>::infinity();
        }
        const std::string what = std::string(backend) +
                                 (nan_c_max ? " NaN c_max" : " inf c_min") +
                                 " keep_trace=" + std::to_string(keep_trace);
        const engine::RunResult res = engine::run_backend(spec);
        EXPECT_EQ(res.error_kind, engine::ErrorKind::kSpecInvalid)
            << what << ": " << res.error;
        EXPECT_NE(res.error.find("non-finite"), std::string::npos)
            << what << ": " << res.error;
      }
    }
  }

  // The classification reaches the JSON result shape.
  EXPECT_NE(engine::to_json(msg_res).find("\"error_kind\":\"spec_invalid\""),
            std::string::npos);
}

TEST(FaultTaxonomy, TotalLossIsClassifiedAsFaultCasualty) {
  engine::RunSpec spec;
  spec.network = "bitonic";
  spec.width = 4;
  spec.processes = 2;
  spec.ops_per_process = 1;
  spec.seed = 5;
  spec.fault.enabled = true;
  spec.fault.p_token_loss = 1.0;  // every token vanishes
  const engine::RunResult res = engine::run_backend(spec);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.error_kind, engine::ErrorKind::kFaultInjected);
}

}  // namespace
