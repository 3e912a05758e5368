// Tests for timing-parameter measurement (sim/timing).
#include <gtest/gtest.h>

#include "core/constructions.hpp"
#include "sim/timed_execution.hpp"
#include "sim/timing.hpp"

namespace cn {
namespace {

TEST(Timing, WireDelayEnvelope) {
  const Network net = make_bitonic(4);  // depth 3
  TimedExecution exec;
  exec.net = &net;
  exec.add(TokenPlan{});
  exec.times = {0.0, 1.0, 3.5, 4.0};  // deltas 1.0, 2.5, 0.5
  const TimingParameters t = measure_timing(exec);
  EXPECT_DOUBLE_EQ(t.c_min, 0.5);
  EXPECT_DOUBLE_EQ(t.c_max, 2.5);
  EXPECT_DOUBLE_EQ(t.ratio(), 5.0);
  EXPECT_FALSE(t.C_L.has_value());  // single token per process
}

TEST(Timing, PerProcessMinimumDelay) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  add_uniform_plan(exec, 0, 0, 0, 0.0, 2.0);
  add_uniform_plan(exec, 1, 1, 1, 0.0, 3.0);
  const TimingParameters t = measure_timing(exec);
  EXPECT_DOUBLE_EQ(t.c_min_p.at(0), 2.0);
  EXPECT_DOUBLE_EQ(t.c_min_p.at(1), 3.0);
  EXPECT_DOUBLE_EQ(t.c_min, 2.0);
  EXPECT_DOUBLE_EQ(t.c_max, 3.0);
}

TEST(Timing, LocalInterOperationDelay) {
  const Network net = make_bitonic(4);  // depth 3, traversal = 3 * delay
  TimedExecution exec;
  exec.net = &net;
  // Process 5: token 0 in [0, 3], token 1 in [4.5, 7.5]: C_L^5 = 1.5.
  add_uniform_plan(exec, 0, 5, 0, 0.0, 1.0);
  add_uniform_plan(exec, 1, 5, 0, 4.5, 1.0);
  // Process 6: one token only — contributes no local delay.
  add_uniform_plan(exec, 2, 6, 1, 0.0, 1.0);
  const TimingParameters t = measure_timing(exec);
  ASSERT_TRUE(t.C_L.has_value());
  EXPECT_DOUBLE_EQ(*t.C_L, 1.5);
  EXPECT_DOUBLE_EQ(t.C_L_p.at(5), 1.5);
  EXPECT_FALSE(t.C_L_p.contains(6));
}

TEST(Timing, GlobalDelayOverNonOverlappingPairs) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  // A: [0, 3]; B: [1, 4] (overlaps A); C: [4.25, 7.25].
  add_uniform_plan(exec, 0, 0, 0, 0.0, 1.0);
  add_uniform_plan(exec, 1, 1, 1, 1.0, 1.0);
  add_uniform_plan(exec, 2, 2, 2, 4.25, 1.0);
  const TimingParameters t = measure_timing(exec);
  // Non-overlapping pairs: (A, C) gap 1.25 and (B, C) gap 0.25.
  ASSERT_TRUE(t.C_g.has_value());
  EXPECT_DOUBLE_EQ(*t.C_g, 0.25);
}

TEST(Timing, NoGlobalDelayWhenAllTokensOverlap) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  add_uniform_plan(exec, 0, 0, 0, 0.0, 1.0);
  add_uniform_plan(exec, 1, 1, 1, 0.5, 1.0);
  const TimingParameters t = measure_timing(exec);
  EXPECT_FALSE(t.C_g.has_value());
}

TEST(Timing, EmptyExecution) {
  const TimedExecution exec{nullptr, {}};
  const TimingParameters t = measure_timing(exec);
  EXPECT_EQ(t.c_min, 0.0);
  EXPECT_EQ(t.c_max, 0.0);
  EXPECT_FALSE(t.C_L.has_value());
  EXPECT_FALSE(t.C_g.has_value());
}

TEST(Timing, SatisfiesChecksEnvelope) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  add_uniform_plan(exec, 0, 0, 0, 0.0, 1.5);
  EXPECT_TRUE(satisfies(exec, {.c_min = 1.0, .c_max = 2.0}));
  EXPECT_FALSE(satisfies(exec, {.c_min = 1.6, .c_max = 2.0}));
  EXPECT_FALSE(satisfies(exec, {.c_min = 1.0, .c_max = 1.4}));
}

TEST(Timing, SatisfiesChecksLocalDelayBound) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  add_uniform_plan(exec, 0, 5, 0, 0.0, 1.0);
  add_uniform_plan(exec, 1, 5, 0, 4.0, 1.0);
  TimingCondition cond{.c_min = 1.0, .c_max = 1.0};
  cond.C_L_at_least = 0.5;
  EXPECT_TRUE(satisfies(exec, cond));
  cond.C_L_at_least = 2.0;
  EXPECT_FALSE(satisfies(exec, cond));  // measured C_L = 1.0
}

TEST(Timing, SatisfiesChecksGlobalDelayBound) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  add_uniform_plan(exec, 0, 0, 0, 0.0, 1.0);
  add_uniform_plan(exec, 1, 1, 1, 5.0, 1.0);
  // Measured C_g = 2.0 (gap between [0,3] and [5,8]).
  TimingCondition cond{.c_min = 1.0, .c_max = 1.0};
  cond.C_g_at_least = 1.5;
  EXPECT_TRUE(satisfies(exec, cond));
  cond.C_g_at_least = 2.5;
  EXPECT_FALSE(satisfies(exec, cond));
}

TEST(Timing, VacuousBoundsAreSatisfied) {
  // A single token has no C_L or C_g; bounds on them are vacuously met.
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  add_uniform_plan(exec, 0, 0, 0, 0.0, 1.0);
  TimingCondition cond{.c_min = 1.0, .c_max = 1.0};
  cond.C_L_at_least = 100.0;
  cond.C_g_at_least = 100.0;
  EXPECT_TRUE(satisfies(exec, cond));
}

TEST(Timing, Theorem41PremiseBoundary) {
  const Network net = make_bitonic(8);  // depth 6
  // d(G) (c_max - 2 c_min) = 6 * (3 - 2) = 6.
  TimingCondition cond{.c_min = 1.0, .c_max = 3.0};
  cond.C_L_at_least = 6.1;
  EXPECT_TRUE(theorem41_premise_holds(net, cond));
  cond.C_L_at_least = 6.0;
  EXPECT_FALSE(theorem41_premise_holds(net, cond));  // strict inequality
  cond.C_L_at_least.reset();
  EXPECT_FALSE(theorem41_premise_holds(net, cond));
}

TEST(Timing, FastRatioMakesPremiseVacuous) {
  // When c_max <= 2 c_min the bound is negative, so any C_L >= 0 works —
  // consistent with LSST99's local criterion c_max/c_min <= 2.
  const Network net = make_bitonic(8);
  TimingCondition cond{.c_min = 1.0, .c_max = 1.9};
  cond.C_L_at_least = 0.0;  // bound is negative: any local delay suffices
  EXPECT_TRUE(theorem41_premise_holds(net, cond));
}

}  // namespace
}  // namespace cn
