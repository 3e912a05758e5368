// Differential tests for the compiled fast path (core/compiled +
// core/sequential) against the preserved graph-walking engine
// (core/reference_state), plus arena/reset identity checks.
//
// ReferenceNetworkState is the executable specification: it re-derives
// every hop from the Network graph exactly as the paper's Section 2.2
// semantics read. These tests drive both engines through identical
// randomized schedules and require byte-identical steps, values, and
// history variables — this is the safety net under the compiled engine's
// semantic compression (round-robin positions, y_j, x_i, and sink counts
// are all reconstructed from per-balancer throughput, not counted).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/compiled.hpp"
#include "core/constructions.hpp"
#include "core/reference_state.hpp"
#include "core/sequential.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"
#include "util/rng.hpp"

namespace cn {
namespace {

// Every observable the two engines share, compared exhaustively.
void expect_same_observables(const NetworkState& fast,
                             const ReferenceNetworkState& ref) {
  const Network& net = ref.network();
  EXPECT_EQ(fast.in_flight(), ref.in_flight());
  EXPECT_EQ(fast.quiescent(), ref.quiescent());
  EXPECT_EQ(fast.total_entered(), ref.total_entered());
  EXPECT_EQ(fast.total_exited(), ref.total_exited());
  for (NodeIndex b = 0; b < net.num_balancers(); ++b) {
    const Balancer& bal = net.balancer(b);
    EXPECT_EQ(fast.balancer_position(b), ref.balancer_position(b))
        << "balancer " << b;
    for (PortIndex i = 0; i < bal.fan_in(); ++i) {
      EXPECT_EQ(fast.balancer_in_count(b, i), ref.balancer_in_count(b, i))
          << "x_i at balancer " << b << " port " << i;
    }
    for (PortIndex j = 0; j < bal.fan_out(); ++j) {
      EXPECT_EQ(fast.balancer_out_count(b, j), ref.balancer_out_count(b, j))
          << "y_j at balancer " << b << " port " << j;
    }
  }
  for (std::uint32_t s = 0; s < net.fan_in(); ++s) {
    EXPECT_EQ(fast.source_count(s), ref.source_count(s)) << "source " << s;
  }
  for (std::uint32_t j = 0; j < net.fan_out(); ++j) {
    EXPECT_EQ(fast.counter_next(j), ref.counter_next(j)) << "sink " << j;
    EXPECT_EQ(fast.sink_count(j), ref.sink_count(j)) << "sink " << j;
  }
}

// Drives both engines through one randomized interleaved schedule:
// entries and single steps are chosen by the RNG, every Step record is
// compared as it happens, and the full observable set is re-checked
// mid-flight (where the compiled engine's parked-token reconstruction of
// x_i actually has work to do) as well as at quiescence.
void run_differential(const Network& net, std::uint64_t seed,
                      std::uint32_t tokens) {
  NetworkState fast(net);
  ReferenceNetworkState ref(net);
  fast.set_recording(true);
  ref.set_recording(true);
  Xoshiro256 rng(seed);
  std::vector<TokenId> in_flight;
  TokenId next = 0;
  std::uint64_t ops = 0;
  while (next < tokens || !in_flight.empty()) {
    const bool do_enter =
        next < tokens && (in_flight.empty() || rng.below(3) == 0);
    if (do_enter) {
      const auto src = static_cast<std::uint32_t>(rng.below(net.fan_in()));
      const auto proc = static_cast<ProcessId>(rng.below(5));
      fast.enter(next, proc, src);
      ref.enter(next, proc, src);
      in_flight.push_back(next);
      ++next;
    } else {
      const std::size_t k = rng.below(in_flight.size());
      const TokenId t = in_flight[k];
      const Step a = fast.step(t);
      const Step b = ref.step(t);
      ASSERT_EQ(a, b) << "step diverged on token " << t;
      if (fast.done(t)) {
        ASSERT_TRUE(ref.done(t));
        EXPECT_EQ(fast.value(t), ref.value(t));
        in_flight[k] = in_flight.back();
        in_flight.pop_back();
      }
    }
    if (++ops % 17 == 0) expect_same_observables(fast, ref);
  }
  expect_same_observables(fast, ref);
  EXPECT_TRUE(fast.quiescent());
  EXPECT_EQ(fast.log(), ref.log());
}

TEST(CompiledDifferential, RandomSchedulesBitonic) {
  for (const std::uint32_t w : {4u, 8u}) {
    const Network net = make_bitonic(w);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      run_differential(net, seed, /*tokens=*/64);
    }
  }
}

TEST(CompiledDifferential, RandomSchedulesPeriodic) {
  for (const std::uint32_t w : {4u, 8u}) {
    const Network net = make_periodic(w);
    for (std::uint64_t seed = 11; seed <= 13; ++seed) {
      run_differential(net, seed, /*tokens=*/64);
    }
  }
}

TEST(CompiledDifferential, RandomSchedulesCountingTree) {
  const Network net = make_counting_tree(8);
  for (std::uint64_t seed = 21; seed <= 23; ++seed) {
    run_differential(net, seed, /*tokens=*/64);
  }
}

TEST(CompiledDifferential, RandomSchedulesNonPow2FanOut) {
  // Fan-out 3 exercises the `%` (non-mask) round-robin path of the
  // compiled tables.
  const Network net = make_single_balancer(2, 3);
  run_differential(net, /*seed=*/31, /*tokens=*/50);
}

TEST(CompiledDifferential, FusedShepherdMatchesReference) {
  // Non-recording shepherd takes the fused fast path (no intermediate
  // TokenState maintenance); values and the reconstructed history must
  // still match the reference exactly.
  const Network net = make_bitonic(8);
  NetworkState fast(net);
  ReferenceNetworkState ref(net);
  Xoshiro256 rng(41);
  for (TokenId t = 0; t < 200; ++t) {
    const auto src = static_cast<std::uint32_t>(rng.below(net.fan_in()));
    const auto proc = static_cast<ProcessId>(rng.below(4));
    const Value a = fast.shepherd(t, proc, src);
    const Value b = ref.shepherd(t, proc, src);
    ASSERT_EQ(a, b) << "token " << t;
    EXPECT_EQ(fast.process_of(t), ref.process_of(t));
  }
  expect_same_observables(fast, ref);
}

TEST(CompiledDifferential, ErrorStringsMatchReference) {
  const Network net = make_bitonic(4);
  NetworkState fast(net);
  ReferenceNetworkState ref(net);
  const auto message = [](auto&& f) -> std::string {
    try {
      f();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "(no throw)";
  };
  // Bad input wire, via the fused non-recording shepherd on the compiled
  // side (its validation must be indistinguishable from enter()).
  EXPECT_EQ(message([&] { fast.shepherd(0, 0, 99); }),
            message([&] { ref.enter(0, 0, 99); }));
  fast.shepherd(0, 0, 0);
  ref.shepherd(0, 0, 0);
  // Token id reuse.
  EXPECT_EQ(message([&] { fast.shepherd(0, 0, 0); }),
            message([&] { ref.enter(0, 0, 0); }));
}

TEST(CompiledState, ResetEqualsFreshlyConstructed) {
  const Network net = make_bitonic(8);
  const CompiledNetwork compiled(net);
  CompiledState used(compiled);
  // Mutate every component the way the engine does.
  for (std::size_t b = 0; b < used.bal_through.size(); ++b) {
    used.bal_through[b] += b + 1;
  }
  for (std::size_t j = 0; j < used.counter_next.size(); ++j) {
    used.counter_next[j] += compiled.fan_out() * (j + 2);
  }
  for (std::size_t s = 0; s < used.source_count.size(); ++s) {
    used.source_count[s] += s + 3;
  }
  const CompiledState fresh(compiled);
  EXPECT_FALSE(used == fresh);
  used.reset();
  EXPECT_TRUE(used == fresh);
}

TEST(CompiledState, NetworkStateResetRerunsIdentically) {
  const Network net = make_periodic(4);
  NetworkState state(net);
  state.set_recording(true);
  const auto run = [&net](NetworkState& st) {
    Xoshiro256 rng(61);
    std::vector<TokenId> live;
    TokenId next = 0;
    while (next < 40 || !live.empty()) {
      if (next < 40 && (live.empty() || rng.below(3) == 0)) {
        st.enter(next, next % 3,
                 static_cast<std::uint32_t>(rng.below(net.fan_in())));
        live.push_back(next);
        ++next;
      } else {
        const std::size_t k = rng.below(live.size());
        if (st.step(live[k]).kind == Step::Kind::kCounter) {
          live[k] = live.back();
          live.pop_back();
        }
      }
    }
  };
  run(state);
  const std::vector<Step> first_log = state.log();
  std::vector<Value> first_values;
  for (TokenId t = 0; t < 40; ++t) first_values.push_back(state.value(t));
  state.reset();
  EXPECT_TRUE(state.quiescent());
  EXPECT_EQ(state.total_entered(), 0u);
  EXPECT_EQ(state.log().size(), 0u);
  run(state);
  EXPECT_EQ(state.log(), first_log);
  for (TokenId t = 0; t < 40; ++t) EXPECT_EQ(state.value(t), first_values[t]);
}

void expect_same_trace(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].token, b[i].token);
    EXPECT_EQ(a[i].process, b[i].process);
    EXPECT_EQ(a[i].source, b[i].source);
    EXPECT_EQ(a[i].sink, b[i].sink);
    EXPECT_EQ(a[i].value, b[i].value);
    EXPECT_EQ(a[i].t_in, b[i].t_in);
    EXPECT_EQ(a[i].t_out, b[i].t_out);
    EXPECT_EQ(a[i].first_seq, b[i].first_seq);
    EXPECT_EQ(a[i].last_seq, b[i].last_seq);
  }
}

TimedExecution random_execution(const Network& net, std::uint64_t seed,
                                std::uint32_t processes,
                                std::uint32_t tokens_per_process) {
  WorkloadSpec spec;
  spec.processes = processes;
  spec.tokens_per_process = tokens_per_process;
  Xoshiro256 rng(seed);
  return generate_workload(net, spec, rng);
}

TEST(SimArenaIdentity, ArenaAndFreshSimulationsAgree) {
  const Network bitonic = make_bitonic(8);
  const Network periodic = make_periodic(4);
  SimArena arena;
  for (std::uint64_t seed = 71; seed <= 73; ++seed) {
    const TimedExecution exec = random_execution(bitonic, seed, 6, 8);
    const SimulationResult fresh = simulate(exec);
    const SimulationResult reused = simulate(exec, arena);
    ASSERT_TRUE(fresh.ok()) << fresh.error;
    EXPECT_EQ(fresh.error, reused.error);
    expect_same_trace(fresh.trace, reused.trace);
  }
  // Switching networks through the same arena recompiles and still agrees.
  const TimedExecution exec = random_execution(periodic, 81, 4, 6);
  const SimulationResult fresh = simulate(exec);
  const SimulationResult reused = simulate(exec, arena);
  ASSERT_TRUE(fresh.ok()) << fresh.error;
  expect_same_trace(fresh.trace, reused.trace);
}

TEST(SimArenaIdentity, RecordedStepsReplayOnReference) {
  // simulate_recorded's step stream must be a legal execution of the
  // graph-walking reference engine producing the same trace.
  const Network net = make_counting_tree(8);
  const TimedExecution exec = random_execution(net, 91, 5, 6);
  const SimulationResult recorded = simulate_recorded(exec);
  ASSERT_TRUE(recorded.ok()) << recorded.error;
  ASSERT_FALSE(recorded.steps.empty());
  expect_same_trace(simulate(exec).trace, recorded.trace);

  std::vector<std::uint32_t> source_of;
  for (const TokenPlan& plan : exec.plans) {
    if (plan.token >= source_of.size()) source_of.resize(plan.token + 1, 0);
    source_of[plan.token] = plan.source;
  }
  ReferenceNetworkState ref(net);
  std::vector<bool> entered;
  for (const Step& expected : recorded.steps) {
    if (expected.token >= entered.size()) {
      entered.resize(expected.token + 1, false);
    }
    if (!entered[expected.token]) {
      ref.enter(expected.token, expected.process, source_of.at(expected.token));
      entered[expected.token] = true;
    }
    const Step got = ref.step(expected.token);
    ASSERT_EQ(got, expected);
  }
  EXPECT_TRUE(ref.quiescent());
  for (const TokenRecord& rec : recorded.trace) {
    EXPECT_EQ(ref.value(rec.token), rec.value);
  }
}

}  // namespace
}  // namespace cn
