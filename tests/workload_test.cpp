// Tests for the randomized workload generator (sim/workload).
#include <gtest/gtest.h>

#include <bit>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/constructions.hpp"
#include "engine/backend.hpp"
#include "fault/fault.hpp"
#include "sim/simulator.hpp"
#include "sim/timing.hpp"
#include "sim/workload.hpp"
#include "trace/sink.hpp"

namespace cn {
namespace {

TEST(Workload, GeneratesValidExecutions) {
  const Network net = make_bitonic(8);
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    WorkloadSpec spec;
    spec.processes = 6;
    spec.tokens_per_process = 5;
    const TimedExecution exec = generate_workload(net, spec, rng);
    EXPECT_EQ(validate(exec), "");
    EXPECT_EQ(exec.plans.size(), 30u);
  }
}

TEST(Workload, RespectsDelayEnvelope) {
  const Network net = make_periodic(4);
  Xoshiro256 rng(8);
  WorkloadSpec spec;
  spec.c_min = 2.0;
  spec.c_max = 5.0;
  spec.extreme_delays = false;
  const TimedExecution exec = generate_workload(net, spec, rng);
  const TimingParameters t = measure_timing(exec);
  EXPECT_GE(t.c_min, 2.0);
  EXPECT_LE(t.c_max, 5.0);
}

TEST(Workload, ExtremeDelaysUseOnlyEndpoints) {
  const Network net = make_bitonic(4);
  Xoshiro256 rng(9);
  WorkloadSpec spec;
  spec.c_min = 1.0;
  spec.c_max = 4.0;
  spec.extreme_delays = true;
  spec.processes = 8;
  spec.tokens_per_process = 4;
  const TimedExecution exec = generate_workload(net, spec, rng);
  for (std::size_t i = 0; i < exec.plans.size(); ++i) {
    const std::span<const double> row = exec.times_of(i);
    for (std::size_t k = 1; k < row.size(); ++k) {
      const double d = row[k] - row[k - 1];
      EXPECT_TRUE(std::abs(d - 1.0) < 1e-12 || std::abs(d - 4.0) < 1e-12);
    }
  }
}

TEST(Workload, RespectsLocalDelayFloor) {
  const Network net = make_bitonic(4);
  Xoshiro256 rng(10);
  WorkloadSpec spec;
  spec.processes = 4;
  spec.tokens_per_process = 6;
  spec.local_delay_min = 7.5;
  spec.local_delay_max = 9.0;
  const TimedExecution exec = generate_workload(net, spec, rng);
  const TimingParameters t = measure_timing(exec);
  ASSERT_TRUE(t.C_L.has_value());
  EXPECT_GE(*t.C_L, 7.5);
}

TEST(Workload, DeterministicPerSeed) {
  const Network net = make_bitonic(8);
  Xoshiro256 a(123), b(123);
  const TimedExecution ea = generate_workload(net, {}, a);
  const TimedExecution eb = generate_workload(net, {}, b);
  ASSERT_EQ(ea.plans.size(), eb.plans.size());
  EXPECT_EQ(ea.times, eb.times);
}

TEST(Workload, ProcessesMapToFixedWires) {
  const Network net = make_bitonic(4);
  Xoshiro256 rng(11);
  WorkloadSpec spec;
  spec.processes = 6;  // more processes than wires: wrap around
  const TimedExecution exec = generate_workload(net, spec, rng);
  for (const TokenPlan& p : exec.plans) {
    EXPECT_EQ(p.source, p.process % net.fan_in());
  }
}

TEST(Workload, SimulatesCleanly) {
  const Network net = make_periodic(8);
  Xoshiro256 rng(12);
  WorkloadSpec spec;
  spec.processes = 8;
  spec.tokens_per_process = 4;
  const TimedExecution exec = generate_workload(net, spec, rng);
  const SimulationResult res = simulate(exec);
  EXPECT_TRUE(res.ok()) << res.error;
  EXPECT_EQ(res.trace.size(), 32u);
}

// --- values pinned across layout and generator changes ------------------
// FNV-1a over the bit patterns of every plan field, crossing time and
// record field, from the workload generator and from the schedules the
// other simulated backends build. Equal-path checks (wave vs scalar,
// stream vs collect) cannot see a change that alters values the same way
// in every path; these constants can.

class Fnv1a {
 public:
  template <class T>
  void add(T x) {
    std::uint64_t bits = 0;
    if constexpr (std::is_floating_point_v<T>) {
      bits = std::bit_cast<std::uint64_t>(static_cast<double>(x));
    } else {
      bits = static_cast<std::uint64_t>(x);
    }
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (bits >> (8 * byte)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Plan i's crossing times in either schedule layout: a row of one flat
/// times array, or a vector per plan. The constants below were computed on
/// the per-plan layout, and the test builds against both.
template <class Exec>
std::span<const double> crossing_times(const Exec& exec, std::size_t i) {
  if constexpr (requires(const Exec& e) { e.times; }) {
    return exec.times_of(i);
  } else {
    return exec.plans[i].times;
  }
}

template <class Exec>
void hash_schedule(const Exec& exec, Fnv1a& h) {
  h.add(exec.plans.size());
  for (std::size_t i = 0; i < exec.plans.size(); ++i) {
    const auto& p = exec.plans[i];
    h.add(p.token);
    h.add(p.process);
    h.add(p.source);
    h.add(p.rank);
    for (const double t : crossing_times(exec, i)) h.add(t);
  }
}

void hash_trace(const Trace& trace, Fnv1a& h) {
  h.add(trace.size());
  for (const TokenRecord& r : trace) {
    h.add(r.token);
    h.add(r.process);
    h.add(r.source);
    h.add(r.sink);
    h.add(r.value);
    h.add(r.t_in);
    h.add(r.t_out);
    h.add(r.first_seq);
    h.add(r.last_seq);
  }
}

TEST(Workload, SchedulesAndRecordsMatchPinnedValues) {
  const Network net = make_bitonic(8);
  struct Generated {
    std::uint32_t tokens_per_process;
    bool extreme;
    std::uint64_t schedule;  ///< Seeds 1-3, each with the next draw after.
    std::uint64_t records;   ///< simulate() of the same schedules.
  };
  const Generated generated[] = {
      {512, true, 0x4C378BEE93379A61ULL, 0x25341031C168BED7ULL},
      {512, false, 0x908AE46EED829226ULL, 0xEB06EB23874F3218ULL},
      {4, true, 0x078DF418D27495F6ULL, 0x98F0CBF98C7227F1ULL},
      {4, false, 0x4FD69060143325D1ULL, 0xD78EB88436E7C473ULL},
  };
  for (const Generated& g : generated) {
    Fnv1a schedule, records;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      WorkloadSpec spec;
      spec.processes = 8;
      spec.tokens_per_process = g.tokens_per_process;
      spec.c_max = 7.0;
      spec.local_delay_max = 2.0;
      spec.extreme_delays = g.extreme;
      Xoshiro256 rng(seed);
      const TimedExecution exec = generate_workload(net, spec, rng);
      hash_schedule(exec, schedule);
      schedule.add(rng());  // the caller's generator advanced as before
      const SimulationResult sim = simulate(exec);
      ASSERT_TRUE(sim.ok()) << sim.error;
      hash_trace(sim.trace, records);
    }
    const std::string what = "8 x " + std::to_string(g.tokens_per_process) +
                             (g.extreme ? " extreme" : " interval");
    EXPECT_EQ(schedule.value(), g.schedule) << what;
    EXPECT_EQ(records.value(), g.records) << what;
  }

  struct Built {
    const char* backend;
    std::uint64_t schedule;  ///< RunResult::exec.
    std::uint64_t records;   ///< RunResult::trace.
  };
  const Built built[] = {
      {"sim_burst", 0xAF84FF7915E72D12ULL, 0xC50B451EB674B37CULL},
      {"sim_heterogeneous", 0x6AFAB6A0D61D2076ULL, 0x2EECB6FB11B28409ULL},
      {"wave", 0x04884702702F2BF8ULL, 0xEC074A01B096EF11ULL},
      {"optimizer", 0xBE81D6D077B50238ULL, 0x3B0F0B60358816C1ULL},
  };
  for (const Built& b : built) {
    engine::RunSpec spec;
    spec.backend = b.backend;
    spec.net = &net;
    spec.c_max = 7.0;
    spec.opt_iterations = 40;
    spec.seed = 3;
    const engine::RunResult res = engine::run_backend(spec);
    ASSERT_TRUE(res.ok()) << b.backend << ": " << res.error;
    Fnv1a schedule, records;
    hash_schedule(res.exec, schedule);
    hash_trace(res.trace, records);
    EXPECT_EQ(schedule.value(), b.schedule) << b.backend;
    EXPECT_EQ(records.value(), b.records) << b.backend;
  }
}

fault::FaultPlan sim_fault_plan(double loss, double stuck, double crash) {
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.p_token_loss = loss;
  plan.p_stuck_balancer = stuck;
  plan.p_process_crash = crash;
  return plan;
}

void hash_steps(const std::vector<Step>& steps, Fnv1a& h) {
  h.add(steps.size());
  for (const Step& s : steps) {
    h.add(static_cast<std::uint64_t>(s.kind));
    h.add(s.process);
    h.add(s.token);
    h.add(s.node);
    h.add(s.in_port);
    h.add(s.out_port);
    h.add(s.value);
  }
}

/// Every interpreter body steps through one hop, so the scalar-vs-wave
/// twins cannot see a change to it, nor to the stuck path or the step
/// log built from it; these constants can. Per network: the records of
/// the four faulted entry points (collected, then streamed) under a mixed
/// plan and under a stuck-heavy one, and simulate_recorded's step log,
/// over seeds 1-2.
TEST(Workload, FaultedRecordsAndStepLogsMatchPinnedValues) {
  struct Pinned {
    Network net;
    std::uint64_t mixed;   ///< Loss 0.2, stuck 0.2, crash 0.15.
    std::uint64_t stuck;   ///< Stuck 0.6 alone.
    std::uint64_t steps;   ///< simulate_recorded's step log.
  };
  const Pinned pinned[] = {
      {make_bitonic(8), 0x15E4710CA51EC655ULL, 0x9AA3BC12AE8E87D5ULL,
       0x66479B103CA4F345ULL},
      {make_periodic(8), 0x8ACF012365B76005ULL, 0x927DA16D5E9AAEC5ULL,
       0x81D65CD285E29FE5ULL},
      {make_bitonic(64), 0x8BC99FF26DB7890DULL, 0x1305966ED63C025DULL,
       0xE393F77151E26835ULL},
      {make_counting_tree(8), 0x96791AD3C9CF6E35ULL, 0x8DCFE4240E1F2145ULL,
       0x652A99FBBFFE8E25ULL},
  };
  const fault::FaultPlan plans[] = {sim_fault_plan(0.2, 0.2, 0.15),
                                    sim_fault_plan(0.0, 0.6, 0.0)};
  for (const Pinned& p : pinned) {
    Fnv1a faulted[2], steps;
    SimArena arena;
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      WorkloadSpec spec;
      spec.processes = 8;
      spec.tokens_per_process = 24;
      spec.c_max = 7.0;
      Xoshiro256 rng(seed);
      const TimedExecution exec = generate_workload(p.net, spec, rng);
      for (int k = 0; k < 2; ++k) {
        const SimFaults faults =
            fault::draw_sim_faults(p.net, exec, plans[k], seed);
        for (const bool wave : {false, true}) {
          const SimulationResult collected =
              wave ? simulate_wave(exec, faults, arena)
                   : simulate(exec, faults, arena);
          ASSERT_TRUE(collected.ok()) << collected.error;
          hash_trace(collected.trace, faulted[k]);
          CollectSink sink;
          const SimulationResult streamed =
              wave ? simulate_wave_stream(exec, faults, arena, sink)
                   : simulate_stream(exec, faults, arena, sink);
          ASSERT_TRUE(streamed.ok()) << streamed.error;
          hash_trace(sink.trace(), faulted[k]);
        }
      }
      const SimulationResult recorded = simulate_recorded(exec);
      ASSERT_TRUE(recorded.ok()) << recorded.error;
      hash_steps(recorded.steps, steps);
    }
    EXPECT_EQ(faulted[0].value(), p.mixed) << p.net.name();
    EXPECT_EQ(faulted[1].value(), p.stuck) << p.net.name();
    EXPECT_EQ(steps.value(), p.steps) << p.net.name();
  }
}

}  // namespace
}  // namespace cn
