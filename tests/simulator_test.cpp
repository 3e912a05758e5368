// Tests for the timed-execution simulator (sim/simulator).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <map>
#include <new>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/constructions.hpp"
#include "core/sequential.hpp"
#include "sim/simulator.hpp"
#include "sim/timed_execution.hpp"
#include "sim/workload.hpp"
#include "util/rng.hpp"

namespace {

/// Calls of the global operator new in this test binary.
std::atomic<std::size_t> g_allocations{0};

}  // namespace

// Out of line, so the compiler never sees free() applied to memory from
// operator new at an inlined call site.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace cn {
namespace {

/// Swaps plans i and j of `exec`, crossing-time rows included.
void swap_plans(TimedExecution& exec, std::size_t i, std::size_t j) {
  std::swap(exec.plans[i], exec.plans[j]);
  const std::span<double> a = exec.times_of(i);
  std::swap_ranges(a.begin(), a.end(), exec.times_of(j).begin());
}

TEST(TimedExecution, ValidateAcceptsWellFormed) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  add_uniform_plan(exec, 0, 0, 0, 0.0, 1.0);
  add_uniform_plan(exec, 1, 1, 1, 0.5, 2.0);
  EXPECT_EQ(validate(exec), "");
}

TEST(TimedExecution, ValidateRejectsShortPlan) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  add_uniform_plan(exec, 0, 0, 0, 0.0, 1.0);
  add_uniform_plan(exec, 1, 1, 1, 0.0, 1.0);
  // One time short of two rows, then one time over.
  exec.times.pop_back();
  EXPECT_NE(validate(exec), "");
  exec.times.push_back(4.0);
  exec.times.push_back(5.0);
  EXPECT_NE(validate(exec), "");
}

TEST(TimedExecution, ValidateRejectsDecreasingTimes) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  const std::span<double> row = add_uniform_plan(exec, 0, 0, 0, 0.0, 1.0);
  row[2] = row[1] - 0.5;
  EXPECT_NE(validate(exec), "");
}

// NaN compares false both ways and an infinity is non-decreasing, so
// neither would fail a plain `times decrease` test.
TEST(TimedExecution, ValidateRejectsNonFiniteTimesNamingTheToken) {
  const Network net = make_bitonic(4);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* what;
    std::uint32_t hop;
    double time;
  };
  const Case cases[] = {
      {"NaN at hop 0", 0, nan},
      {"NaN mid-row", 2, nan},
      {"+inf at t_out", net.depth(), inf},
  };
  for (const Case& c : cases) {
    TimedExecution exec;
    exec.net = &net;
    add_uniform_plan(exec, 0, 0, 0, 0.0, 1.0);
    add_uniform_plan(exec, 41, 1, 1, 0.0, 1.0)[c.hop] = c.time;
    const std::string verdict = validate(exec);
    EXPECT_NE(verdict.find("token 41"), std::string::npos)
        << c.what << ": " << verdict;
    EXPECT_NE(verdict.find("not finite"), std::string::npos)
        << c.what << ": " << verdict;
    const SimulationResult res = simulate(exec);
    EXPECT_FALSE(res.ok()) << c.what;
    EXPECT_EQ(res.error, verdict) << c.what;
  }
}

TEST(TimedExecution, ValidateRejectsOverlappingSameProcessTokens) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  add_uniform_plan(exec, 0, 7, 0, 0.0, 1.0);
  // Second token of process 7 enters before the first exits (t_out = 3).
  add_uniform_plan(exec, 1, 7, 0, 2.0, 1.0);
  EXPECT_NE(validate(exec), "");
}

TEST(TimedExecution, BackToBackSameProcessTokensAreLegal) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  add_uniform_plan(exec, 0, 7, 0, 0.0, 1.0);
  add_uniform_plan(exec, 1, 7, 0, 3.0, 1.0);
  EXPECT_EQ(validate(exec), "");
}

// Two tokens of process 0 share t_in = 0: token 0 has zero duration,
// token 1 crosses at 0, 1, 2, 3. The overlap verdict must not depend on
// which plan comes first; the rank order at run time decides the pair.
TEST(TimedExecution, ValidateVerdictIgnoresPlanOrder) {
  const Network net = make_bitonic(4);
  const auto add_zero = [](TimedExecution& exec) {
    add_uniform_plan(exec, 0, 0, 0, 0.0, 0.0, /*rank=*/0.0);
  };
  const auto add_crossing = [](TimedExecution& exec) {
    add_uniform_plan(exec, 1, 0, 1, 0.0, 1.0, /*rank=*/1.0);
  };
  for (const bool swapped : {false, true}) {
    TimedExecution exec;
    exec.net = &net;
    if (swapped) {
      add_crossing(exec);
      add_zero(exec);
    } else {
      add_zero(exec);
      add_crossing(exec);
    }
    EXPECT_EQ(validate(exec), "") << "swapped " << swapped;
    const SimulationResult res = simulate(exec);
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_EQ(res.trace.size(), 2u);
  }

  // Tie-heavy schedules, valid or not: every permutation of the plans
  // gets the same verdict, word for word.
  Xoshiro256 rng(0x5EED);
  int valid = 0;
  for (int trial = 0; trial < 200; ++trial) {
    TimedExecution exec;
    exec.net = &net;
    for (TokenId t = 0; t < 12; ++t) {
      TokenPlan p;
      p.token = t;
      p.process = static_cast<ProcessId>(rng.below(3));
      p.rank = static_cast<double>(rng.below(3));
      double time = static_cast<double>(rng.below(6));
      for (double& crossing : exec.add(p)) {
        crossing = time;
        time += static_cast<double>(rng.below(2));
      }
    }
    const std::string verdict = validate(exec);
    if (verdict.empty()) ++valid;
    for (int shuffle = 0; shuffle < 4; ++shuffle) {
      for (std::size_t i = exec.plans.size(); i > 1; --i) {
        swap_plans(exec, i - 1, rng.below(i));
      }
      ASSERT_EQ(validate(exec), verdict) << "trial " << trial;
    }
  }
  // Both verdicts occur.
  EXPECT_GT(valid, 0);
  EXPECT_LT(valid, 200);
}

// The duplicate-id table is built only at the first id that does not
// increase; it must already hold the ids before it.
TEST(TimedExecution, ValidateFindsADuplicateAfterIncreasingIds) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  for (const TokenId t : {5u, 6u, 7u, 6u}) {
    add_uniform_plan(exec, t, /*process=*/t + exec.plans.size(), 0, 0.0, 1.0);
  }
  EXPECT_EQ(validate(exec), "duplicate token id 6");
}

TEST(TimedExecution, ValidateAcceptsUniqueIdsThatDoNotIncrease) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  for (const TokenId t : {9u, 3u, 7u, 1u, 8u}) {
    add_uniform_plan(exec, t, /*process=*/t, 0, 0.0, 1.0);
  }
  EXPECT_EQ(validate(exec), "");
}

// Per-plan problems are reported in plan order, whichever kind comes
// first: a repeated id at plan 3 before a bad source at plan 5, and the
// other way round.
TEST(TimedExecution, ValidateReportsTheFirstBadPlan) {
  const Network net = make_bitonic(4);
  const auto build = [&](std::size_t duplicate_at, std::size_t bad_source_at) {
    TimedExecution exec;
    exec.net = &net;
    for (std::uint32_t i = 0; i < 7; ++i) {
      const TokenId t = i == duplicate_at ? 11 : 10 + i;
      const std::uint32_t source = i == bad_source_at ? net.fan_in() : 0;
      add_uniform_plan(exec, t, /*process=*/i, source, 0.0, 1.0);
    }
    return exec;
  };
  EXPECT_EQ(validate(build(3, 5)), "duplicate token id 11");
  EXPECT_EQ(validate(build(5, 3)), "token 13: bad source wire");
}

// generate_workload's plans are already in (process, t_in, t_out, token)
// order, which validate() walks in place; a shuffle makes it sort a copy.
// One injected overlap is reported as the same pair, word for word.
TEST(TimedExecution, ValidateOverlapPairIgnoresKeyOrder) {
  const Network net = make_bitonic(8);
  WorkloadSpec wl;
  wl.processes = 6;
  wl.tokens_per_process = 40;
  Xoshiro256 rng(13);
  TimedExecution exec = generate_workload(net, wl, rng);
  ASSERT_EQ(validate(exec), "");
  // Plan 100 (process 2's token 100) moves back to enter halfway through
  // plan 99, which keeps the plans in key order.
  ASSERT_EQ(exec.plans[99].process, 2u);
  ASSERT_EQ(exec.plans[100].process, 2u);
  const double shift =
      exec.t_in(100) - (exec.t_in(99) + exec.t_out(99)) / 2.0;
  for (double& t : exec.times_of(100)) t -= shift;
  const std::string want = "process 2 has overlapping tokens 99, 100";
  EXPECT_EQ(validate(exec), want);
  for (std::size_t i = exec.plans.size(); i > 1; --i) {
    swap_plans(exec, i - 1, rng.below(i));
  }
  EXPECT_EQ(validate(exec), want);
}

// validate() runs before every interpretation, so on the generator's
// output it must not touch the heap. Out of key order it sorts a copy,
// which the counter sees.
TEST(TimedExecution, ValidateAllocatesNothingOnGeneratedWorkloads) {
  const Network net = make_bitonic(8);
  WorkloadSpec wl;
  wl.processes = 8;
  wl.tokens_per_process = 512;
  wl.c_max = 3.0;
  wl.local_delay_max = 2.0;
  Xoshiro256 rng(3);
  TimedExecution exec = generate_workload(net, wl, rng);
  std::size_t before = g_allocations.load();
  EXPECT_EQ(validate(exec), "");
  EXPECT_EQ(g_allocations.load() - before, 0u);

  swap_plans(exec, 0, exec.plans.size() - 1);
  before = g_allocations.load();
  EXPECT_EQ(validate(exec), "");
  EXPECT_GT(g_allocations.load() - before, 0u);
}

TEST(Simulator, SequentialTokensGetIncreasingValues) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  // Five strictly sequential tokens: each enters after the previous exits.
  for (TokenId t = 0; t < 5; ++t) {
    add_uniform_plan(exec, t, t, t % 4, t * 10.0, 1.0);
  }
  const SimulationResult res = simulate(exec);
  ASSERT_TRUE(res.ok()) << res.error;
  ASSERT_EQ(res.trace.size(), 5u);
  for (TokenId t = 0; t < 5; ++t) {
    EXPECT_EQ(res.trace[t].value, t);
    EXPECT_EQ(res.trace[t].token, t);
  }
}

TEST(Simulator, ValuesAreAPermutationOfZeroToN) {
  const Network net = make_periodic(8);
  TimedExecution exec;
  exec.net = &net;
  // 16 overlapping tokens with varied speeds.
  for (TokenId t = 0; t < 16; ++t) {
    add_uniform_plan(exec, t, t, t % 8, 0.1 * t, 1.0 + 0.13 * (t % 5));
  }
  const SimulationResult res = simulate(exec);
  ASSERT_TRUE(res.ok()) << res.error;
  std::vector<Value> values;
  for (const TokenRecord& r : res.trace) values.push_back(r.value);
  std::sort(values.begin(), values.end());
  for (std::size_t i = 0; i < values.size(); ++i) EXPECT_EQ(values[i], i);
}

TEST(Simulator, RankBreaksTiesDeterministically) {
  const Network net = make_single_balancer(2, 2);
  // Two tokens crossing the balancer at the same instant: the lower rank
  // goes first and takes output port 0 (value 0).
  for (int swap = 0; swap < 2; ++swap) {
    TimedExecution exec;
    exec.net = &net;
    add_uniform_plan(exec, 0, 0, 0, 1.0, 1.0, swap == 0 ? 0.0 : 5.0);
    add_uniform_plan(exec, 1, 1, 1, 1.0, 1.0, swap == 0 ? 5.0 : 0.0);
    const SimulationResult res = simulate(exec);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.trace[0].value, swap == 0 ? 0u : 1u);
    EXPECT_EQ(res.trace[1].value, swap == 0 ? 1u : 0u);
  }
}

TEST(Simulator, SequenceNumbersDefinePrecedence) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  add_uniform_plan(exec, 0, 0, 0, 0.0, 1.0);
  add_uniform_plan(exec, 1, 1, 0, 100.0, 1.0);
  const SimulationResult res = simulate(exec);
  ASSERT_TRUE(res.ok());
  EXPECT_LT(res.trace[0].last_seq, res.trace[1].first_seq);
}

TEST(Simulator, RecordsSinkAndSource) {
  const Network net = make_counting_tree(4);
  TimedExecution exec;
  exec.net = &net;
  for (TokenId t = 0; t < 4; ++t) {
    add_uniform_plan(exec, t, t, 0, t * 10.0, 1.0);
  }
  const SimulationResult res = simulate(exec);
  ASSERT_TRUE(res.ok()) << res.error;
  for (TokenId t = 0; t < 4; ++t) {
    EXPECT_EQ(res.trace[t].source, 0u);
    EXPECT_EQ(res.trace[t].sink, t);  // token k lands on sink (k-1) mod w
    EXPECT_EQ(res.trace[t].value, t);
  }
}

namespace {

/// Naive reference executor: materializes every (time, rank, token, hop)
/// event up front, sorts them globally, and replays them on the
/// sequential engine. The production simulator merges per-process step
/// streams instead; differential testing shows both produce the same
/// step sequence. Returns the step log, or nothing when a process issues
/// a token while its previous one is still in flight (a step-order
/// overlap).
std::optional<std::vector<Step>> reference_execute(
    const TimedExecution& exec) {
  struct Ev {
    double time;
    double rank;
    TokenId token;
    std::uint32_t hop;
  };
  std::vector<Ev> events;
  std::map<TokenId, const TokenPlan*> plan_of;
  for (std::size_t i = 0; i < exec.plans.size(); ++i) {
    const TokenPlan& p = exec.plans[i];
    plan_of[p.token] = &p;
    const std::span<const double> row = exec.times_of(i);
    for (std::uint32_t h = 0; h < row.size(); ++h) {
      events.push_back({row[h], p.rank, p.token, h});
    }
  }
  std::sort(events.begin(), events.end(), [](const Ev& a, const Ev& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.rank != b.rank) return a.rank < b.rank;
    if (a.token != b.token) return a.token < b.token;
    return a.hop < b.hop;
  });
  NetworkState state(*exec.net);
  std::set<ProcessId> busy;
  std::vector<Step> log;
  for (const Ev& ev : events) {
    const TokenPlan& p = *plan_of.at(ev.token);
    if (ev.hop == 0) {
      if (!busy.insert(p.process).second) return std::nullopt;
      state.enter(p.token, p.process, p.source);
    }
    log.push_back(state.step(ev.token));
    if (log.back().kind == Step::Kind::kCounter) busy.erase(p.process);
  }
  return log;
}

/// Integer schedule on which equal times are the rule: per process a
/// chain of tokens, each entering 0 or 1 after its predecessor's exit,
/// with hop delays in {0, 1, 2} (all 0 for a zero-duration token). Valid
/// by construction. Ranks are random in {0, ..., 3}, so adverse ranks at
/// shared instants make step-order overlaps common, unless
/// `ordered_ranks`: then a process's k-th token has rank k, which keeps
/// its tokens' steps apart while ranks still tie across processes.
TimedExecution tie_heavy_schedule(const Network& net, Xoshiro256& rng,
                                  std::uint32_t processes,
                                  std::uint32_t per_process,
                                  bool zero_durations, bool ordered_ranks) {
  TimedExecution exec;
  exec.net = &net;
  TokenId next = 0;
  for (ProcessId p = 0; p < processes; ++p) {
    double t = static_cast<double>(rng.below(4));
    for (std::uint32_t k = 0; k < per_process; ++k) {
      TokenPlan plan;
      plan.token = next++;
      plan.process = p;
      plan.source = static_cast<std::uint32_t>(rng.below(net.fan_in()));
      plan.rank = static_cast<double>(ordered_ranks ? k : rng.below(4));
      const bool zero = zero_durations && rng.below(3) == 0;
      const std::span<double> row = exec.add(plan);
      row[0] = t;
      for (std::uint32_t h = 1; h <= net.depth(); ++h) {
        row[h] = row[h - 1] + (zero ? 0.0 : static_cast<double>(rng.below(3)));
      }
      t = row[net.depth()] + static_cast<double>(rng.below(2));
    }
  }
  return exec;
}

/// simulate_recorded's step log equals the reference's; a schedule the
/// reference rejects for step-order overlap fails the same way.
void expect_reference_steps(const TimedExecution& exec,
                            const std::string& what) {
  ASSERT_EQ(validate(exec), "") << what;
  const SimulationResult sim = simulate_recorded(exec);
  const std::optional<std::vector<Step>> ref = reference_execute(exec);
  if (!ref.has_value()) {
    EXPECT_NE(sim.error.find("step-order overlap"), std::string::npos)
        << what << ": " << sim.error;
    return;
  }
  ASSERT_TRUE(sim.ok()) << what << ": " << sim.error;
  EXPECT_EQ(sim.steps, *ref) << what;
}

}  // namespace

TEST(Simulator, DifferentialAgainstNaiveReference) {
  Xoshiro256 rng(0xD1FF);
  for (const std::uint32_t w : {4u, 8u}) {
    for (const Network& net :
         {make_bitonic(w), make_periodic(w), make_counting_tree(w)}) {
      for (int trial = 0; trial < 25; ++trial) {
        WorkloadSpec spec;
        spec.processes = 6;
        spec.tokens_per_process = 4;
        spec.c_min = 1.0;
        spec.c_max = 7.0;
        const TimedExecution exec = generate_workload(net, spec, rng);
        const SimulationResult sim = simulate(exec);
        ASSERT_TRUE(sim.ok()) << sim.error;
        const std::optional<std::vector<Step>> ref = reference_execute(exec);
        ASSERT_TRUE(ref.has_value());
        std::map<TokenId, Value> ref_value;
        for (const Step& st : *ref) {
          if (st.kind == Step::Kind::kCounter) ref_value[st.token] = st.value;
        }
        for (const TokenRecord& r : sim.trace) {
          ASSERT_EQ(r.value, ref_value.at(r.token))
              << net.name() << " trial " << trial << " token " << r.token;
        }
        expect_reference_steps(exec, net.name() + " random " +
                                         std::to_string(trial));
      }
      // Equal times everywhere, with and without zero-duration tokens,
      // and the same schedules with their plans shuffled: the step log
      // must follow the global sort, or fail where it overlaps.
      std::size_t overlaps = 0;
      for (int trial = 0; trial < 40; ++trial) {
        const bool zero = trial % 2 == 1;
        TimedExecution exec =
            tie_heavy_schedule(net, rng, 5, 6, zero, trial % 4 >= 2);
        const std::string what = net.name() +
                                 (zero ? " zero-duration " : " ties ") +
                                 std::to_string(trial);
        expect_reference_steps(exec, what);
        if (!reference_execute(exec).has_value()) ++overlaps;
        for (std::size_t i = exec.plans.size(); i > 1; --i) {
          swap_plans(exec, i - 1, rng.below(i));
        }
        expect_reference_steps(exec, what + " shuffled");
      }
      // Both verdicts occur, so both branches above were exercised.
      EXPECT_GT(overlaps, 0u) << net.name();
      EXPECT_LT(overlaps, 40u) << net.name();
    }
  }
}

TEST(Simulator, OverlappingFastTokenOvertakesSlow) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  // Slow token enters first; fast token enters slightly later but exits
  // first and must obtain the smaller value (non-linearizable only if a
  // third party completed in between — here it's just reordering).
  add_uniform_plan(exec, 0, 0, 0, 0.0, 10.0);
  add_uniform_plan(exec, 1, 1, 1, 1.0, 1.0);
  const SimulationResult res = simulate(exec);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.trace[1].value, 0u);
  EXPECT_EQ(res.trace[0].value, 1u);
}

}  // namespace
}  // namespace cn
