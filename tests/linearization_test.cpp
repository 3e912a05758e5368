// Tests for explicit linearizations (sim/linearization), including the
// equivalence of HSW96's order-based definition with the token-wise
// characterization used by the analyzers.
#include <gtest/gtest.h>

#include "core/constructions.hpp"
#include "trace/consistency.hpp"
#include "sim/linearization.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"
#include "util/rng.hpp"

namespace cn {
namespace {

TokenRecord rec(TokenId token, ProcessId process, Value value, double t_in,
                double t_out) {
  TokenRecord r;
  r.token = token;
  r.process = process;
  r.value = value;
  r.t_in = t_in;
  r.t_out = t_out;
  r.first_seq = static_cast<std::uint64_t>(t_in * 4);
  r.last_seq = static_cast<std::uint64_t>(t_out * 4);
  return r;
}

TEST(Serialization, RespectsProcessOrder) {
  const Trace t{rec(0, 1, 0, 0, 1), rec(1, 1, 1, 2, 3), rec(2, 2, 2, 0, 1)};
  EXPECT_TRUE(is_serialization(t, {0, 1, 2}));
  EXPECT_TRUE(is_serialization(t, {2, 0, 1}));
  EXPECT_TRUE(is_serialization(t, {0, 2, 1}));
  EXPECT_FALSE(is_serialization(t, {1, 0, 2}));  // process 1 reordered
}

TEST(Serialization, RejectsMalformedOrders) {
  const Trace t{rec(0, 1, 0, 0, 1), rec(1, 2, 1, 0, 1)};
  EXPECT_FALSE(is_serialization(t, {0}));        // too short
  EXPECT_FALSE(is_serialization(t, {0, 0}));     // duplicate
  EXPECT_FALSE(is_serialization(t, {0, 5}));     // unknown token
}

TEST(Linearization, AcceptsCanonicalWitness) {
  // Two overlapping tokens: either order is fine; values decide.
  const Trace t{rec(0, 1, 1, 0, 2), rec(1, 2, 0, 1, 3)};
  EXPECT_TRUE(is_valid_linearization(t, {1, 0}));
  EXPECT_FALSE(is_valid_linearization(t, {0, 1}));  // values decrease
}

TEST(Linearization, RejectsPrecedenceInversion) {
  // Token 0 completely precedes token 1; listing 1 first breaks it.
  const Trace t{rec(0, 1, 0, 0, 1), rec(1, 2, 1, 2, 3)};
  EXPECT_TRUE(is_valid_linearization(t, {0, 1}));
  EXPECT_FALSE(is_valid_linearization(t, {1, 0}));
}

TEST(Linearization, FindProducesValidWitness) {
  const Trace t{rec(0, 1, 1, 0, 2), rec(1, 2, 0, 1, 3), rec(2, 3, 2, 2.5, 4)};
  const auto order = find_linearization(t);
  ASSERT_TRUE(order.has_value());
  EXPECT_TRUE(is_valid_linearization(t, *order));
}

TEST(Linearization, FindFailsOnInversion) {
  const Trace t{rec(0, 1, 7, 0, 1), rec(1, 2, 3, 2, 3)};
  EXPECT_FALSE(find_linearization(t).has_value());
  EXPECT_FALSE(exists_linearization_bruteforce(t));
}

TEST(Linearization, EmptyTraceIsLinearizable) {
  EXPECT_TRUE(find_linearization({}).has_value());
  EXPECT_TRUE(exists_linearization_bruteforce({}));
}

TEST(Linearization, DefinitionsCoincideOnRandomExecutions) {
  // HSW96 (exists a linearization) vs the token-wise characterization
  // (no completed-earlier-with-larger-value witness): equivalent.
  const Network net = make_bitonic(4);
  Xoshiro256 rng(0x11A);
  int nonlinear = 0;
  for (int trial = 0; trial < 80; ++trial) {
    WorkloadSpec spec;
    spec.processes = 3;
    spec.tokens_per_process = 2;  // 6 tokens: 720 permutations max
    spec.c_min = 0.5;
    spec.c_max = 9.0;
    const TimedExecution exec = generate_workload(net, spec, rng);
    const SimulationResult sim = simulate(exec);
    ASSERT_TRUE(sim.ok());
    const bool tokenwise = is_linearizable(sim.trace);
    const bool brute = exists_linearization_bruteforce(sim.trace);
    ASSERT_EQ(tokenwise, brute) << "trial " << trial;
    const auto witness = find_linearization(sim.trace);
    ASSERT_EQ(tokenwise, witness.has_value());
    if (witness) {
      ASSERT_TRUE(is_valid_linearization(sim.trace, *witness));
    } else {
      ++nonlinear;
    }
  }
  EXPECT_GT(nonlinear, 0) << "workload never produced an inversion";
}

TEST(Linearization, WaveExecutionHasNoLinearization) {
  // The Prop 5.3 execution is certifiably non-linearizable: no witness
  // exists even by exhaustive search (w = 4 keeps 6 tokens tractable).
  // Hand-built trace with the Prop 5.3 shape for w = 4: wave 2 completes
  // strictly before wave 3 enters (same processes), wave 3 takes the
  // small values.
  const Trace t{
      rec(0, 10, 4, 0.0, 7.75),  rec(1, 11, 5, 0.0, 7.75),  // wave 1
      rec(2, 0, 2, 0.0, 5.5),    rec(3, 1, 3, 0.0, 5.5),    // wave 2
      rec(4, 0, 0, 5.75, 8.25),  rec(5, 1, 1, 5.75, 8.25),  // wave 3
  };
  EXPECT_FALSE(exists_linearization_bruteforce(t));
  EXPECT_FALSE(is_linearizable(t));
  EXPECT_FALSE(is_sequentially_consistent(t));
}

}  // namespace
}  // namespace cn
