// Cross-cutting property tests tying the simulator to the paper's
// supporting lemmas: Proposition 4.2 / Corollary 4.3 (the delay bound
// forces value order), Lemma 3.1 (lockstep waves restore balancer
// state), Theorem 4.1 as a randomized sweep, and agreement between the
// sequential engine and the timed simulator on serialized schedules.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/constructions.hpp"
#include "core/sequential.hpp"
#include "core/valency.hpp"
#include "sim/adversary.hpp"
#include "trace/consistency.hpp"
#include "sim/simulator.hpp"
#include "sim/timing.hpp"
#include "sim/workload.hpp"
#include "util/rng.hpp"

namespace cn {
namespace {

// ------------------------------------------------ Proposition 4.2 / 4.3

TEST(Proposition42, GapAboveBoundForcesValueOrder) {
  // For random executions, every pair of tokens separated by more than
  // d(G)(c_max - 2 c_min) must return values in entry order.
  for (const std::uint32_t w : {4u, 8u}) {
    const Network net = make_bitonic(w);
    Xoshiro256 rng(0x42 + w);
    const double c_min = 1.0, c_max = 6.0;
    const double bound = net.depth() * (c_max - 2.0 * c_min);
    int pairs_checked = 0;
    for (int trial = 0; trial < 60; ++trial) {
      WorkloadSpec spec;
      spec.processes = 6;
      spec.tokens_per_process = 3;
      spec.c_min = c_min;
      spec.c_max = c_max;
      spec.local_delay_max = 2.0 * bound;  // create qualifying gaps
      const TimedExecution exec = generate_workload(net, spec, rng);
      const SimulationResult sim = simulate(exec);
      ASSERT_TRUE(sim.ok());
      for (const TokenRecord& a : sim.trace) {
        for (const TokenRecord& b : sim.trace) {
          if (b.t_in - a.t_out > bound) {
            EXPECT_GT(b.value, a.value)
                << "w=" << w << " trial=" << trial << " tokens " << a.token
                << "," << b.token;
            ++pairs_checked;
          }
        }
      }
    }
    EXPECT_GT(pairs_checked, 100) << "too few qualifying pairs to be meaningful";
  }
}

TEST(Corollary43, SameProcessVariantUsesPerProcessDelay) {
  // Same property restricted to same-process pairs, with the bound using
  // c_min^P: a process whose own tokens are fast gets a weaker premise.
  const Network net = make_bitonic(8);
  Xoshiro256 rng(0x43);
  WorkloadSpec spec;
  spec.processes = 4;
  spec.tokens_per_process = 5;
  spec.c_min = 1.0;
  spec.c_max = 5.0;
  spec.local_delay_max = 60.0;
  for (int trial = 0; trial < 40; ++trial) {
    const TimedExecution exec = generate_workload(net, spec, rng);
    const SimulationResult sim = simulate(exec);
    ASSERT_TRUE(sim.ok());
    const TimingParameters tp = measure_timing(exec);
    for (const TokenRecord& a : sim.trace) {
      for (const TokenRecord& b : sim.trace) {
        if (a.process != b.process) continue;
        const double cmin_p = tp.c_min_p.at(a.process);
        const double bound = net.depth() * (tp.c_max - 2.0 * cmin_p);
        if (b.t_in - a.t_out > bound) {
          EXPECT_GT(b.value, a.value);
        }
      }
    }
  }
}

// ------------------------------------------------------------ Lemma 3.1

TEST(Lemma31, LockstepWaveRestoresEveryBalancerState) {
  // Replay on the sequential engine: push a partial random prefix, record
  // all balancer positions, push one lockstep wave (one token per input
  // wire, stepped layer by layer), and check every position is restored.
  for (const std::uint32_t w : {4u, 8u, 16u}) {
    const Network net = make_bitonic(w);
    NetworkState state(net);
    Xoshiro256 rng(0x31 + w);
    TokenId next = 0;
    for (int k = 0; k < 25; ++k) {
      (void)state.shepherd(next, next, static_cast<std::uint32_t>(rng.below(w)));
      ++next;
    }
    std::vector<PortIndex> before(net.num_balancers());
    for (NodeIndex b = 0; b < net.num_balancers(); ++b) {
      before[b] = state.balancer_position(b);
    }
    // Lockstep wave: enter all, then advance layer by layer.
    std::vector<TokenId> wave;
    for (std::uint32_t i = 0; i < w; ++i) {
      state.enter(next, next, i);
      wave.push_back(next);
      ++next;
    }
    for (std::uint32_t layer = 0; layer <= net.depth(); ++layer) {
      for (const TokenId t : wave) {
        if (!state.done(t)) (void)state.step(t);
      }
    }
    ASSERT_TRUE(state.quiescent());
    for (NodeIndex b = 0; b < net.num_balancers(); ++b) {
      EXPECT_EQ(state.balancer_position(b), before[b])
          << "w=" << w << " balancer " << b;
    }
  }
}

TEST(Lemma31, WaveTakesOneValuePerCounter) {
  const std::uint32_t w = 8;
  const Network net = make_bitonic(w);
  NetworkState state(net);
  std::vector<Value> values;
  for (std::uint32_t i = 0; i < w; ++i) {
    values.push_back(state.shepherd(i, i, i));
  }
  std::sort(values.begin(), values.end());
  for (std::uint32_t i = 0; i < w; ++i) EXPECT_EQ(values[i], i);
  for (std::uint32_t j = 0; j < w; ++j) EXPECT_EQ(state.sink_count(j), 1u);
}

// --------------------------------------- Theorem 4.1 randomized sweep

TEST(Theorem41, RandomExecutionsUnderThePremiseAreAlwaysSC) {
  const Network net = make_bitonic(8);
  Xoshiro256 rng(0x41);
  const double c_min = 1.0, c_max = 4.0;
  const double bound = net.depth() * (c_max - 2.0 * c_min);  // 12
  for (int trial = 0; trial < 120; ++trial) {
    WorkloadSpec spec;
    spec.processes = 8;
    spec.tokens_per_process = 4;
    spec.c_min = c_min;
    spec.c_max = c_max;
    spec.local_delay_min = bound + 0.01;
    spec.local_delay_max = bound + 4.0;
    const TimedExecution exec = generate_workload(net, spec, rng);
    const SimulationResult sim = simulate(exec);
    ASSERT_TRUE(sim.ok());
    EXPECT_TRUE(is_sequentially_consistent(sim.trace)) << "trial " << trial;
  }
}

// -------------------------------- engine vs simulator on serial plans

TEST(EngineSimulatorAgreement, SerializedSchedulesMatchShepherding) {
  // A timed execution where tokens never overlap must produce exactly
  // the values the sequential engine produces for the same entry order.
  for (const std::uint32_t w : {4u, 8u}) {
    const Network net = make_periodic(w);
    Xoshiro256 rng(0xE5 + w);
    TimedExecution exec;
    exec.net = &net;
    std::vector<std::uint32_t> sources;
    double t = 0.0;
    for (TokenId k = 0; k < 20; ++k) {
      const auto src = static_cast<std::uint32_t>(rng.below(w));
      sources.push_back(src);
      add_uniform_plan(exec, k, k, src, t, 1.0);
      t += net.depth() + 10.0;  // strictly after the previous token exits
    }
    const SimulationResult sim = simulate(exec);
    ASSERT_TRUE(sim.ok());
    NetworkState engine(net);
    for (TokenId k = 0; k < 20; ++k) {
      EXPECT_EQ(sim.trace[k].value, engine.shepherd(k, k, sources[k]));
    }
  }
}

TEST(EngineSimulatorAgreement, SimultaneousLockstepMatchesRankOrder) {
  // All tokens share identical times; the simulator must process them in
  // rank order, i.e. exactly like sequentially shepherding by rank.
  const Network net = make_bitonic(8);
  TimedExecution exec;
  exec.net = &net;
  for (TokenId k = 0; k < 8; ++k) {
    // Reverse rank order.
    add_uniform_plan(exec, k, k, k, 0.0, 1.0, /*rank=*/7.0 - k);
  }
  const SimulationResult sim = simulate(exec);
  ASSERT_TRUE(sim.ok());
  NetworkState engine(net);
  for (TokenId k = 8; k-- > 0;) {  // shepherd in rank order: token 7 first
    EXPECT_EQ(sim.trace[k].value, engine.shepherd(k, k, k));
  }
}

}  // namespace
}  // namespace cn
