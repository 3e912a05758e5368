// Tests for consistency analysis (sim/consistency), including the
// Lemma 5.1 property (non-linearizability fraction equals the absolute
// fraction).
#include <gtest/gtest.h>

#include "core/constructions.hpp"
#include "trace/consistency.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"
#include "util/rng.hpp"

namespace cn {
namespace {

/// Handy literal trace builder: {token, process, value, t_in, t_out}.
/// Sequence numbers are derived from times (2*t as integers), so tests
/// can reason purely in real time.
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

TEST(Consistency, EmptyAndSingletonAreConsistent) {
  EXPECT_TRUE(is_linearizable({}));
  EXPECT_TRUE(is_sequentially_consistent({}));
  const Trace one{rec(0, 0, 5, 0, 1)};
  EXPECT_TRUE(is_linearizable(one));
  EXPECT_TRUE(is_sequentially_consistent(one));
}

TEST(Consistency, DetectsNonLinearizableToken) {
  // A completes with value 7 before B starts; B returns 3.
  const Trace t{rec(0, 0, 7, 0, 1), rec(1, 1, 3, 2, 3)};
  const ConsistencyReport r = analyze(t);
  EXPECT_FALSE(r.linearizable());
  ASSERT_EQ(r.non_linearizable.size(), 1u);
  EXPECT_EQ(r.non_linearizable[0], 1u);  // the LATER token is flagged
  // Different processes: still sequentially consistent.
  EXPECT_TRUE(r.sequentially_consistent());
}

TEST(Consistency, OverlappingInversionIsLinearizable) {
  // B starts before A finishes: no real-time order constraint.
  const Trace t{rec(0, 0, 7, 0, 2), rec(1, 1, 3, 1, 3)};
  EXPECT_TRUE(is_linearizable(t));
}

TEST(Consistency, DetectsNonSequentiallyConsistentToken) {
  // Same process: 7 then 3.
  const Trace t{rec(0, 4, 7, 0, 1), rec(1, 4, 3, 2, 3)};
  const ConsistencyReport r = analyze(t);
  EXPECT_FALSE(r.sequentially_consistent());
  ASSERT_EQ(r.non_sequentially_consistent.size(), 1u);
  EXPECT_EQ(r.non_sequentially_consistent[0], 1u);
}

TEST(Consistency, NonSCImpliesNonLinearizable) {
  const Trace t{rec(0, 4, 7, 0, 1), rec(1, 4, 3, 2, 3)};
  const ConsistencyReport r = analyze(t);
  // Any non-SC token is also non-linearizable (same witness pair), so
  // F_nl >= F_nsc always.
  EXPECT_GE(r.f_nl, r.f_nsc);
  EXPECT_EQ(r.non_linearizable, r.non_sequentially_consistent);
}

TEST(Consistency, FractionsAreRatios) {
  const Trace t{rec(0, 0, 9, 0, 1), rec(1, 1, 3, 2, 3), rec(2, 2, 4, 2, 3),
                rec(3, 3, 10, 4, 5)};
  const ConsistencyReport r = analyze(t);
  EXPECT_EQ(r.total, 4u);
  EXPECT_EQ(r.non_linearizable.size(), 2u);  // tokens 1 and 2
  EXPECT_DOUBLE_EQ(r.f_nl, 0.5);
  EXPECT_DOUBLE_EQ(r.f_nsc, 0.0);
}

TEST(Consistency, ChainOfInversionsFlagsAllButFirst) {
  // Values 5, 4, 3 strictly sequential: tokens 1 and 2 are non-lin.
  const Trace t{rec(0, 0, 5, 0, 1), rec(1, 1, 4, 2, 3), rec(2, 2, 3, 4, 5)};
  const ConsistencyReport r = analyze(t);
  EXPECT_EQ(r.non_linearizable, (std::vector<TokenId>{1, 2}));
}

TEST(Consistency, RemoveTokensFiltersTrace) {
  const Trace t{rec(0, 0, 5, 0, 1), rec(1, 1, 4, 2, 3), rec(2, 2, 3, 4, 5)};
  const Trace out = remove_tokens(t, {1});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].token, 0u);
  EXPECT_EQ(out[1].token, 2u);
}

TEST(Consistency, RemovingNonLinearizableTokensYieldsLinearizable) {
  const Trace t{rec(0, 0, 5, 0, 1), rec(1, 1, 4, 2, 3), rec(2, 2, 3, 4, 5),
                rec(3, 3, 6, 1.5, 2.5)};
  const ConsistencyReport r = analyze(t);
  EXPECT_TRUE(is_linearizable(remove_tokens(t, r.non_linearizable)));
}

TEST(Lemma51, FractionEqualsAbsoluteFractionOnHandcraftedTraces) {
  const std::vector<Trace> traces = {
      {rec(0, 0, 7, 0, 1), rec(1, 1, 3, 2, 3)},
      {rec(0, 0, 5, 0, 1), rec(1, 1, 4, 2, 3), rec(2, 2, 3, 4, 5)},
      {rec(0, 0, 9, 0, 1), rec(1, 1, 3, 2, 3), rec(2, 2, 4, 2, 3),
       rec(3, 3, 10, 4, 5)},
      // Removing the early token with value 9 would repair both later
      // tokens at once, but the definition restricts removal to
      // non-linearizable tokens, and token 0 is linearizable — so both
      // flagged tokens must go.
      {rec(0, 0, 9, 0, 1), rec(1, 1, 3, 2, 3), rec(2, 2, 4, 4, 5)},
  };
  for (const Trace& t : traces) {
    const ConsistencyReport r = analyze(t);
    EXPECT_EQ(min_removal_for_linearizability(t), r.non_linearizable.size());
  }
}

TEST(Lemma51, FractionEqualsAbsoluteFractionOnRandomExecutions) {
  // Property test: simulate random small workloads and check Lemma 5.1.
  const Network net = make_bitonic(4);
  Xoshiro256 rng(2024);
  int nonlinear_seen = 0;
  for (int trial = 0; trial < 60; ++trial) {
    WorkloadSpec spec;
    spec.processes = 3;
    spec.tokens_per_process = 3;
    spec.c_min = 0.5;
    spec.c_max = 8.0;  // huge asynchrony: inversions are common
    const TimedExecution exec = generate_workload(net, spec, rng);
    const SimulationResult sim = simulate(exec);
    ASSERT_TRUE(sim.ok()) << sim.error;
    const ConsistencyReport r = analyze(sim.trace);
    if (!r.linearizable()) ++nonlinear_seen;
    ASSERT_EQ(min_removal_for_linearizability(sim.trace),
              r.non_linearizable.size())
        << "trial " << trial;
  }
  EXPECT_GT(nonlinear_seen, 0) << "workload never produced an inversion";
}

TEST(Consistency, RemovingNonSCTokensYieldsSequentialConsistency) {
  // Random property: dropping all flagged tokens leaves each process's
  // value sequence increasing.
  const Network net = make_bitonic(8);
  Xoshiro256 rng(5150);
  for (int trial = 0; trial < 40; ++trial) {
    WorkloadSpec spec;
    spec.processes = 4;
    spec.tokens_per_process = 4;
    spec.c_min = 0.5;
    spec.c_max = 12.0;
    const TimedExecution exec = generate_workload(net, spec, rng);
    const SimulationResult sim = simulate(exec);
    ASSERT_TRUE(sim.ok());
    const ConsistencyReport r = analyze(sim.trace);
    EXPECT_TRUE(is_sequentially_consistent(
        remove_tokens(sim.trace, r.non_sequentially_consistent)));
  }
}

TEST(Observation21, PerProcessSCImpliesGlobalSC) {
  // A trace is SC iff it is SC with respect to every process.
  const Trace good{rec(0, 1, 2, 0, 1), rec(1, 1, 5, 2, 3), rec(2, 2, 3, 0, 1)};
  EXPECT_TRUE(is_sequentially_consistent_for(good, 1));
  EXPECT_TRUE(is_sequentially_consistent_for(good, 2));
  EXPECT_TRUE(is_sequentially_consistent(good));

  const Trace bad{rec(0, 1, 5, 0, 1), rec(1, 1, 2, 2, 3), rec(2, 2, 3, 0, 1)};
  EXPECT_FALSE(is_sequentially_consistent_for(bad, 1));
  EXPECT_TRUE(is_sequentially_consistent_for(bad, 2));
  EXPECT_FALSE(is_sequentially_consistent(bad));
}

TEST(Observation21, UnknownProcessIsVacuouslySC) {
  const Trace t{rec(0, 1, 5, 0, 1)};
  EXPECT_TRUE(is_sequentially_consistent_for(t, 99));
}

TEST(Observation21, HoldsOnRandomExecutions) {
  const Network net = make_bitonic(8);
  Xoshiro256 rng(0x21);
  for (int trial = 0; trial < 30; ++trial) {
    WorkloadSpec spec;
    spec.processes = 5;
    spec.tokens_per_process = 4;
    spec.c_min = 0.5;
    spec.c_max = 10.0;
    const TimedExecution exec = generate_workload(net, spec, rng);
    const SimulationResult sim = simulate(exec);
    ASSERT_TRUE(sim.ok());
    bool all_proc_sc = true;
    for (ProcessId p = 0; p < spec.processes; ++p) {
      all_proc_sc &= is_sequentially_consistent_for(sim.trace, p);
    }
    EXPECT_EQ(all_proc_sc, is_sequentially_consistent(sim.trace));
  }
}

TEST(Consistency, SCViolationRequiresSameProcess) {
  // Inversions across processes never show up in the non-SC set.
  const Trace t{rec(0, 0, 7, 0, 1), rec(1, 1, 3, 2, 3), rec(2, 0, 9, 4, 5)};
  const ConsistencyReport r = analyze(t);
  EXPECT_TRUE(r.sequentially_consistent());
  EXPECT_FALSE(r.linearizable());
}

}  // namespace
}  // namespace cn
