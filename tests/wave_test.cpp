// Differential tests for the level-synchronous wave execution stack
// (core/wave + simulate_wave and its faulted overload + engine wave_exec)
// against the scalar interpreters, which remain the executable
// specification.
//
// The contract under test is BYTE-IDENTITY: for every execution the wave
// path accepts it must reproduce the scalar path's traces (every
// TokenRecord field, including seq numbers), errors, streaming record
// sequences, consistency reports, and sweep JSON; executions it cannot
// take (non-uniform networks, overlap violations) must fall back to the
// scalar interpreter and reproduce its behavior exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/compiled.hpp"
#include "core/constructions.hpp"
#include "core/sequential.hpp"
#include "core/wave.hpp"
#include "engine/engine.hpp"
#include "fault/fault.hpp"
#include "sim/simulator.hpp"
#include "sim/timed_execution.hpp"
#include "sim/workload.hpp"
#include "trace/consistency.hpp"
#include "trace/sink.hpp"
#include "trace/streaming.hpp"
#include "util/rng.hpp"

namespace cn {
namespace {

// ---------------------------------------------------------------------
// Generic wave kernels vs the scalar engine, level-major order.
// ---------------------------------------------------------------------

// Scalar reference for one wave round: enter tokens in span order, then
// advance every token one node per level, in span order — exactly the
// order the wave kernels promise.
TEST(GenericWave, MatchesScalarLevelMajorStepping) {
  const Network net = make_bitonic(8);
  const CompiledNetwork compiled(net);
  ASSERT_TRUE(net.uniform());
  const std::uint32_t d = net.depth();

  NetworkState scalar(net);
  CompiledState wave_state(compiled);
  TokenId next = 0;
  for (std::uint32_t round = 0; round < 5; ++round) {
    // Token i of the wave is listed as 2i + 1: the kernels touch only
    // the listed entries of the per-token wire array.
    std::vector<std::uint32_t> tokens(8);
    std::vector<WireIndex> wire(16, kInvalidWire);
    std::vector<TokenId> ids(8);
    for (std::uint32_t i = 0; i < 8; ++i) {
      ids[i] = next++;
      scalar.enter(ids[i], /*process=*/i, /*source=*/i);
      tokens[i] = 2 * i + 1;
      wire[tokens[i]] = compiled.source_wire(i);
      ++wave_state.source_count[i];
    }
    for (std::uint32_t l = 0; l < d; ++l) {
      for (const TokenId t : ids) scalar.step(t);
      step_wave(compiled, wave_state, tokens, wire);
    }
    std::vector<Value> values(8);
    for (const TokenId t : ids) scalar.step(t);
    step_wave_counters(compiled, wave_state, tokens, wire,
                       [&](std::size_t k, Value v) { values[k] = v; });
    for (std::uint32_t i = 0; i < 8; ++i) {
      EXPECT_EQ(wire[2 * i], kInvalidWire);
    }
    for (std::uint32_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(scalar.done(ids[i]));
      EXPECT_EQ(values[i], scalar.value(ids[i])) << "round " << round
                                                 << " slot " << i;
    }
    // The shared history variables agree at quiescence.
    for (std::uint32_t j = 0; j < 8; ++j) {
      EXPECT_EQ(wave_state.counter_next[j], scalar.counter_next(j));
    }
    for (NodeIndex b = 0; b < net.num_balancers(); ++b) {
      EXPECT_EQ(wave_state.bal_through[b] % 2, scalar.balancer_position(b));
    }
  }
}

// Non-power-of-two fan-out ((1,3) balancers): the kNoMask modulo path.
TEST(GenericWave, HandlesNonPowerOfTwoFanOut) {
  const Network net = make_counting_tree_k(9, 3);
  const CompiledNetwork compiled(net);
  ASSERT_TRUE(net.uniform());
  const std::uint32_t d = net.depth();

  NetworkState scalar(net);
  CompiledState wave_state(compiled);
  const std::uint32_t batch = 9;
  TokenId next = 0;
  for (std::uint32_t round = 0; round < 4; ++round) {
    std::vector<std::uint32_t> tokens(batch);
    std::vector<WireIndex> wire(batch);
    std::vector<TokenId> ids(batch);
    for (std::uint32_t i = 0; i < batch; ++i) {
      ids[i] = next++;
      scalar.enter(ids[i], /*process=*/i, /*source=*/0);
      tokens[i] = i;
      wire[i] = compiled.source_wire(0);
    }
    for (std::uint32_t l = 0; l < d; ++l) {
      for (const TokenId t : ids) scalar.step(t);
      step_wave(compiled, wave_state, tokens, wire);
    }
    std::vector<Value> values(batch);
    for (const TokenId t : ids) scalar.step(t);
    step_wave_counters(compiled, wave_state, tokens, wire,
                       [&](std::size_t k, Value v) { values[k] = v; });
    for (std::uint32_t i = 0; i < batch; ++i) {
      EXPECT_EQ(values[i], scalar.value(ids[i]));
    }
  }
}

// ---------------------------------------------------------------------
// simulate_wave vs simulate: full-trace byte-identity.
// ---------------------------------------------------------------------

void expect_same_result(const SimulationResult& scalar,
                        const SimulationResult& wave,
                        const std::string& what) {
  EXPECT_EQ(scalar.error, wave.error) << what;
  ASSERT_EQ(scalar.trace.size(), wave.trace.size()) << what;
  for (std::size_t i = 0; i < scalar.trace.size(); ++i) {
    EXPECT_EQ(scalar.trace[i], wave.trace[i]) << what << " record " << i;
  }
}

TEST(SimulateWave, MatchesScalarOnRandomWorkloads) {
  struct Config {
    Network net;
    std::string name;
  };
  std::vector<Config> configs;
  configs.push_back({make_bitonic(8), "bitonic8"});
  configs.push_back({make_periodic(8), "periodic8"});
  configs.push_back({make_bitonic(32), "bitonic32"});
  configs.push_back({make_counting_tree(8), "tree8"});
  configs.push_back({make_counting_tree_k(9, 3), "tree9x3"});

  SimArena arena;
  for (const Config& cfg : configs) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      WorkloadSpec spec;
      spec.processes = 6;
      // 144 tokens: 432 to 2,304 steps, one wave chunk on the trees and
      // up to nine on B(32). The MultiChunk tests below cross many.
      spec.tokens_per_process = 24;
      spec.c_min = 1.0;
      spec.c_max = 2.5;
      spec.local_delay_max = 1.0;
      Xoshiro256 rng(seed);
      const TimedExecution exec = generate_workload(cfg.net, spec, rng);
      const SimulationResult scalar = simulate(exec);
      const SimulationResult wave = simulate_wave(exec, arena);
      expect_same_result(scalar, wave,
                         cfg.name + " seed " + std::to_string(seed));
    }
  }
}

// Tie-heavy schedules: every crossing time an integer, many simultaneous
// events, ranks deciding the order — the regime where seq assignment and
// per-balancer arrival order actually bite.
TEST(SimulateWave, MatchesScalarOnTieHeavySchedules) {
  const Network net = make_bitonic(8);
  SimArena arena;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    Xoshiro256 rng(100 + seed);
    TimedExecution exec;
    exec.net = &net;
    for (TokenId t = 0; t < 64; ++t) {
      add_uniform_plan(
          exec, t, /*process=*/static_cast<ProcessId>(t % 16),
          /*source=*/static_cast<std::uint32_t>(rng.below(8)),
          /*t_in=*/static_cast<double>((t / 16) * (net.depth() + 1)),
          /*delay=*/1.0,
          /*rank=*/static_cast<double>(rng.below(5)));
    }
    ASSERT_EQ(validate(exec), "");
    const SimulationResult scalar = simulate(exec);
    ASSERT_TRUE(scalar.ok()) << scalar.error;
    const SimulationResult wave = simulate_wave(exec, arena);
    expect_same_result(scalar, wave, "ties seed " + std::to_string(seed));
  }
}

TEST(SimulateWave, EmptyAndSingleToken) {
  const Network net = make_bitonic(8);
  SimArena arena;
  TimedExecution empty;
  empty.net = &net;
  expect_same_result(simulate(empty), simulate_wave(empty, arena), "empty");

  TimedExecution one;
  one.net = &net;
  add_uniform_plan(one, 0, 0, 3, 0.0, 1.0);
  const SimulationResult scalar = simulate(one);
  ASSERT_TRUE(scalar.ok());
  ASSERT_EQ(scalar.trace.size(), 1u);
  expect_same_result(scalar, simulate_wave(one, arena), "single");
}

// Non-uniform network: the wave path must fall back and reproduce the
// scalar error text exactly.
TEST(SimulateWave, NonUniformFallsBackToScalarError) {
  const Network net = make_brick_wall(4, 3);
  TimedExecution exec;
  exec.net = &net;
  add_uniform_plan(exec, 0, 0, 0, 0.0, 1.0);
  SimArena arena;
  const SimulationResult scalar = simulate(exec);
  const SimulationResult wave = simulate_wave(exec, arena);
  EXPECT_EQ(scalar.error, wave.error);
  EXPECT_FALSE(wave.ok());
}

// One arena across networks: uniformity is the network's own, not cached
// with the arena's tables, so a non-uniform network after a uniform one of
// the same depth still falls back to the scalar body.
TEST(SimulateWave, ArenaSwitchToNonUniformFallsBack) {
  const Network uniform = make_bitonic(4);
  const Network brick = make_brick_wall(4, 3);
  ASSERT_EQ(uniform.depth(), brick.depth());
  TimedExecution first;
  first.net = &uniform;
  add_uniform_plan(first, 0, 0, 0, 0.0, 1.0);
  TimedExecution second;
  second.net = &brick;
  add_uniform_plan(second, 0, 0, 0, 0.0, 1.0);
  SimArena arena;
  ASSERT_TRUE(simulate_wave(first, arena).ok());
  const SimulationResult wave = simulate_wave(second, arena);
  EXPECT_FALSE(wave.ok());
  EXPECT_EQ(wave.error, simulate(second).error);
}

TEST(SimulateWave, ReservedTokenIdError) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  add_uniform_plan(exec, std::numeric_limits<TokenId>::max(), 0, 0, 0.0, 1.0);
  SimArena arena;
  const SimulationResult scalar = simulate(exec);
  const SimulationResult wave = simulate_wave(exec, arena);
  EXPECT_FALSE(scalar.ok());
  EXPECT_EQ(scalar.error, wave.error);
}

// Equal-time adverse-rank overlap: validate() passes (back-to-back times
// are legal) but the runtime event order issues process 9's second token
// before its first completes. The wave pre-check must detect this and
// fall back, reproducing the scalar error AND the scalar's partial
// stream emission.
TimedExecution make_overlap_exec(const Network& net) {
  TimedExecution exec;
  exec.net = &net;
  const std::uint32_t d = net.depth();
  // Two earlier tokens that complete cleanly (the emitted prefix).
  add_uniform_plan(exec, 0, 0, 0, 0.0, 0.25);
  add_uniform_plan(exec, 1, 1, 1, 0.0, 0.25);
  // Token 2 of process 9 exits at time d; token 3 of process 9 enters at
  // time d with a LOWER rank, so its entry event pops first.
  add_uniform_plan(exec, 2, 9, 2, 0.0, 1.0, /*rank=*/1.0);
  add_uniform_plan(exec, 3, 9, 3, static_cast<double>(d), 1.0, /*rank=*/0.0);
  return exec;
}

TEST(SimulateWave, OverlapPrecheckFallsBackIdentically) {
  const Network net = make_bitonic(8);
  const TimedExecution exec = make_overlap_exec(net);
  ASSERT_EQ(validate(exec), "");
  SimArena arena;
  const SimulationResult scalar = simulate(exec);
  ASSERT_FALSE(scalar.ok());
  EXPECT_NE(scalar.error.find("step-order overlap"), std::string::npos)
      << scalar.error;
  const SimulationResult wave = simulate_wave(exec, arena);
  EXPECT_EQ(scalar.error, wave.error);

  // Streaming: the partial emission before the failure must match too.
  CollectSink scalar_sink, wave_sink;
  SimArena a2;
  const SimulationResult s2 = simulate_stream(exec, a2, scalar_sink);
  const SimulationResult w2 = simulate_wave_stream(exec, a2, wave_sink);
  EXPECT_EQ(s2.error, w2.error);
  EXPECT_EQ(scalar_sink.trace(), wave_sink.trace());
}

// ---------------------------------------------------------------------
// Streaming: identical record sequences and consistency reports.
// ---------------------------------------------------------------------

void expect_same_report(const ConsistencyReport& a,
                        const ConsistencyReport& b) {
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.non_linearizable, b.non_linearizable);
  EXPECT_EQ(a.non_sequentially_consistent, b.non_sequentially_consistent);
  EXPECT_EQ(a.f_nl, b.f_nl);
  EXPECT_EQ(a.f_nsc, b.f_nsc);
}

TEST(SimulateWaveStream, MatchesScalarStream) {
  const Network net = make_bitonic(8);
  SimArena arena;
  for (std::uint64_t seed = 21; seed <= 23; ++seed) {
    WorkloadSpec spec;
    spec.processes = 8;
    spec.tokens_per_process = 32;
    spec.c_max = 3.0;  // past the ratio bound: violations in the stream
    Xoshiro256 rng(seed);
    const TimedExecution exec = generate_workload(net, spec, rng);

    CollectSink scalar_collect, wave_collect;
    StreamingConsistency scalar_cons, wave_cons;
    TeeSink scalar_tee(scalar_collect, scalar_cons);
    TeeSink wave_tee(wave_collect, wave_cons);
    const SimulationResult s = simulate_stream(exec, arena, scalar_tee);
    const SimulationResult w = simulate_wave_stream(exec, arena, wave_tee);
    ASSERT_TRUE(s.ok()) << s.error;
    ASSERT_TRUE(w.ok()) << w.error;
    scalar_cons.finish();
    wave_cons.finish();
    EXPECT_EQ(scalar_collect.trace(), wave_collect.trace());
    expect_same_report(scalar_cons.report(), wave_cons.report());
    // And the stream is the batch trace, reordered by issue order.
    const SimulationResult batch = simulate(exec);
    EXPECT_EQ(scalar_collect.trace().size(), batch.trace.size());
  }
}

// ---------------------------------------------------------------------
// Chunk boundaries and plan order. The wave body consumes the canonical
// step order in chunks of 4096 / (d + 1) steps; these schedules span
// fifty.
// ---------------------------------------------------------------------

/// The sweep_wave_stream benchmark shape: B(8), 8 x 512 tokens, c_max 3.
/// 28,672 steps, fifty chunks of at most 585.
TimedExecution multi_chunk_workload(const Network& net, std::uint64_t seed) {
  WorkloadSpec spec;
  spec.processes = 8;
  spec.tokens_per_process = 512;
  spec.c_max = 3.0;
  spec.local_delay_max = 2.0;
  Xoshiro256 rng(seed);
  return generate_workload(net, spec, rng);
}

/// Integer times, 16 processes x 256 tokens on B(8) (28,672 steps):
/// hop delays in {0, 1, 2}, entries 0 or 1 after the previous exit, so
/// most steps share their instant with others. A process's k-th token
/// has rank k, which keeps its own tokens' steps apart (no step-order
/// overlap) while ranks tie across processes.
TimedExecution multi_chunk_ties(const Network& net, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  TimedExecution exec;
  exec.net = &net;
  TokenId next = 0;
  for (ProcessId p = 0; p < 16; ++p) {
    double t = static_cast<double>(rng.below(4));
    for (std::uint32_t k = 0; k < 256; ++k) {
      TokenPlan plan;
      plan.token = next++;
      plan.process = p;
      plan.source = static_cast<std::uint32_t>(rng.below(net.fan_in()));
      plan.rank = static_cast<double>(k);
      const std::span<double> row = exec.add(plan);
      row[0] = t;
      for (std::uint32_t h = 1; h <= net.depth(); ++h) {
        row[h] = row[h - 1] + static_cast<double>(rng.below(3));
      }
      t = row[net.depth()] + static_cast<double>(rng.below(2));
    }
  }
  return exec;
}

fault::FaultPlan mixed_fault_plan() {
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.p_token_loss = 0.2;
  plan.p_stuck_balancer = 0.2;
  plan.p_process_crash = 0.15;
  return plan;
}

/// The records a streaming entry point emits, in emission order.
template <class Run>
Trace streamed(const Run& run) {
  CollectSink sink;
  const SimulationResult res = run(sink);
  EXPECT_TRUE(res.ok()) << res.error;
  EXPECT_TRUE(res.trace.empty());
  return sink.trace();
}

/// The four pristine and the four faulted entry points agree pairwise,
/// scalar against wave: full traces and streamed record sequences.
void expect_wave_matches_scalar(const TimedExecution& exec,
                                const SimFaults& faults,
                                const std::string& what) {
  SimArena arena;
  const SimulationResult scalar = simulate(exec, arena);
  ASSERT_TRUE(scalar.ok()) << what << ": " << scalar.error;
  ASSERT_EQ(scalar.trace.size(), exec.plans.size()) << what;
  expect_same_result(scalar, simulate_wave(exec, arena), what);
  const Trace scalar_stream = streamed(
      [&](TraceSink& s) { return simulate_stream(exec, arena, s); });
  EXPECT_EQ(scalar_stream.size(), exec.plans.size()) << what;
  EXPECT_EQ(scalar_stream, streamed([&](TraceSink& s) {
              return simulate_wave_stream(exec, arena, s);
            }))
      << what;

  const SimulationResult f_scalar = simulate(exec, faults, arena);
  ASSERT_TRUE(f_scalar.ok()) << what << ": " << f_scalar.error;
  expect_same_result(f_scalar, simulate_wave(exec, faults, arena),
                     what + " faulted");
  EXPECT_EQ(streamed([&](TraceSink& s) {
              return simulate_stream(exec, faults, arena, s);
            }),
            streamed([&](TraceSink& s) {
              return simulate_wave_stream(exec, faults, arena, s);
            }))
      << what << " faulted";
}

TEST(SimulateWave, MultiChunkMatchesScalar) {
  const Network net = make_bitonic(8);
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const TimedExecution exec = multi_chunk_workload(net, seed);
    ASSERT_EQ(exec.plans.size() * (net.depth() + 1), 28672u);
    const SimFaults faults =
        fault::draw_sim_faults(net, exec, mixed_fault_plan(), seed);
    ASSERT_FALSE(faults.empty());
    expect_wave_matches_scalar(exec, faults,
                               "workload seed " + std::to_string(seed));
  }
}

TEST(SimulateWave, MultiChunkTieHeavyMatchesScalar) {
  const Network net = make_bitonic(8);
  const TimedExecution exec = multi_chunk_ties(net, 77);
  ASSERT_EQ(validate(exec), "");
  ASSERT_EQ(exec.plans.size() * (net.depth() + 1), 28672u);
  const SimFaults faults =
      fault::draw_sim_faults(net, exec, mixed_fault_plan(), 77);
  ASSERT_FALSE(faults.empty());
  expect_wave_matches_scalar(exec, faults, "ties");
}

// The canonical order depends on the plans' contents, never on their
// order in exec.plans: every streaming entry point emits the identical
// record sequence after a shuffle.
TEST(SimulateWaveStream, ShuffledPlansStreamIdentically) {
  const Network net = make_bitonic(8);
  SimArena arena;
  for (const bool ties : {false, true}) {
    TimedExecution exec =
        ties ? multi_chunk_ties(net, 5) : multi_chunk_workload(net, 5);
    SimFaults faults =
        fault::draw_sim_faults(net, exec, mixed_fault_plan(), 5);
    const auto stream_all = [&] {
      return std::vector<Trace>{
          streamed([&](TraceSink& s) {
            return simulate_stream(exec, arena, s);
          }),
          streamed([&](TraceSink& s) {
            return simulate_wave_stream(exec, arena, s);
          }),
          streamed([&](TraceSink& s) {
            return simulate_stream(exec, faults, arena, s);
          }),
          streamed([&](TraceSink& s) {
            return simulate_wave_stream(exec, faults, arena, s);
          })};
    };
    const std::vector<Trace> before = stream_all();
    Xoshiro256 rng(9);
    for (std::size_t i = exec.plans.size(); i > 1; --i) {
      // Rows and overlay entries move with their plans.
      const std::size_t j = rng.below(i);
      std::swap(exec.plans[i - 1], exec.plans[j]);
      const std::span<double> a = exec.times_of(i - 1);
      std::swap_ranges(a.begin(), a.end(), exec.times_of(j).begin());
      std::swap(faults.lost_before_hop[i - 1], faults.lost_before_hop[j]);
    }
    const std::vector<Trace> after = stream_all();
    for (std::size_t k = 0; k < before.size(); ++k) {
      EXPECT_FALSE(before[k].empty());
      EXPECT_EQ(before[k], after[k]) << "ties " << ties << " entry " << k;
    }
  }
}

// ---------------------------------------------------------------------
// Wave buckets. The merge deals each chunk of the canonical order into
// one bucket per level; a chunk is 4096 / (d + 1) steps (585 on B(8),
// 186 on B(64)). These schedules sit on the edges of that layout.
// ---------------------------------------------------------------------

// 1000 single-token processes all enter at time 0, before any second
// hop (hop h crosses at time h): the first chunk is hop-0 steps only,
// which fill the level-0 bucket, and the next chunk starts with the rest.
TEST(WaveBuckets, EntryBurstFillsTheFirstChunk) {
  const Network net = make_bitonic(8);
  Xoshiro256 rng(31);
  TimedExecution exec;
  exec.net = &net;
  for (TokenId t = 0; t < 1000; ++t) {
    add_uniform_plan(exec, t, /*process=*/t, /*source=*/t % net.fan_in(),
                     /*t_in=*/0.0, /*delay=*/1.0, /*rank=*/rng.unit());
  }
  const SimFaults faults =
      fault::draw_sim_faults(net, exec, mixed_fault_plan(), 31);
  ASSERT_FALSE(faults.empty());
  expect_wave_matches_scalar(exec, faults, "entry burst");
}

// Deep and narrow networks: B(64) (d = 21, 186-step chunks) and counting
// trees, random workloads crossing many chunks.
TEST(WaveBuckets, DeepAndNarrowNetworksMatchScalar) {
  struct Config {
    Network net;
    std::string name;
    std::uint32_t processes;
    std::uint32_t tokens;
  };
  std::vector<Config> configs;
  configs.push_back({make_bitonic(64), "bitonic64", 16, 64});
  configs.push_back({make_counting_tree(16), "tree16", 8, 256});
  configs.push_back({make_counting_tree_k(9, 3), "tree9x3", 6, 512});
  for (const Config& cfg : configs) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      WorkloadSpec wl;
      wl.processes = cfg.processes;
      wl.tokens_per_process = cfg.tokens;
      wl.c_min = 0.0;
      wl.c_max = 9.0;
      Xoshiro256 rng(seed);
      const TimedExecution exec = generate_workload(cfg.net, wl, rng);
      const SimFaults faults =
          fault::draw_sim_faults(cfg.net, exec, mixed_fault_plan(), seed);
      ASSERT_FALSE(faults.empty()) << cfg.name;
      expect_wave_matches_scalar(exec, faults,
                                 cfg.name + " seed " + std::to_string(seed));
    }
  }
}

// Two processes, each issuing back to back, interleave their steps
// exactly: a chunk boundary lands inside both in-flight tokens (on B(8),
// step 585 is hop 5 of process 1's 42nd token). B(16) (372-step chunks of
// 11-hop tokens) and P(8) (409-step chunks of 10-hop tokens) split
// tokens at other hops.
TEST(WaveBuckets, ChunkBoundarySplitsATokensHops) {
  std::vector<Network> nets;
  nets.push_back(make_bitonic(8));
  nets.push_back(make_bitonic(16));
  nets.push_back(make_periodic(8));
  for (const Network& net : nets) {
    const double span = net.depth() + 1.0;
    TimedExecution exec;
    exec.net = &net;
    TokenId next = 0;
    for (std::uint32_t k = 0; k < 200; ++k) {
      for (ProcessId p = 0; p < 2; ++p) {
        add_uniform_plan(exec, next++, p, (k + p) % net.fan_in(),
                         /*t_in=*/k * span + 0.5 * p, /*delay=*/1.0);
      }
    }
    const SimFaults faults =
        fault::draw_sim_faults(net, exec, mixed_fault_plan(), 3);
    ASSERT_FALSE(faults.empty()) << net.name();
    expect_wave_matches_scalar(exec, faults, net.name());
  }
}

// ---------------------------------------------------------------------
// Faulted wave interpreter.
// ---------------------------------------------------------------------

TEST(FaultedWave, ZeroFaultIdentity) {
  const Network net = make_bitonic(8);
  WorkloadSpec spec;
  spec.processes = 6;
  spec.tokens_per_process = 16;
  Xoshiro256 rng(7);
  const TimedExecution exec = generate_workload(net, spec, rng);
  SimFaults none;  // fully-sized overlay with no faults drawn
  none.lost_before_hop.assign(exec.plans.size(), kCompletes);
  none.stuck.assign(net.num_balancers(), false);
  SimArena arena;
  const SimulationResult scalar = simulate(exec, none, arena);
  const SimulationResult wave = simulate_wave(exec, none, arena);
  expect_same_result(scalar, wave, "zero-fault");
  // ... and both equal the pristine interpreters.
  const SimulationResult pristine = simulate(exec);
  ASSERT_TRUE(pristine.ok());
  ASSERT_EQ(wave.trace.size(), pristine.trace.size());
  for (std::size_t i = 0; i < wave.trace.size(); ++i) {
    EXPECT_EQ(wave.trace[i], pristine.trace[i]) << "record " << i;
  }
}

TEST(FaultedWave, MatchesScalarUnderMixedFaults) {
  struct Config {
    Network net;
    std::string name;
  };
  std::vector<Config> configs;
  configs.push_back({make_bitonic(8), "bitonic8"});
  configs.push_back({make_periodic(8), "periodic8"});
  configs.push_back({make_counting_tree_k(9, 3), "tree9x3"});

  SimArena arena;
  for (const Config& cfg : configs) {
    for (std::uint64_t seed = 41; seed <= 44; ++seed) {
      WorkloadSpec wl;
      wl.processes = 6;
      wl.tokens_per_process = 24;
      Xoshiro256 rng(seed);
      const TimedExecution exec = generate_workload(cfg.net, wl, rng);
      fault::FaultPlan plan;
      plan.enabled = true;
      plan.p_token_loss = 0.2;
      plan.p_stuck_balancer = 0.25;
      plan.p_process_crash = 0.15;
      const SimFaults faults =
          fault::draw_sim_faults(cfg.net, exec, plan, seed);
      const SimulationResult scalar = simulate(exec, faults, arena);
      const SimulationResult wave = simulate_wave(exec, faults, arena);
      expect_same_result(scalar, wave,
                          cfg.name + " seed " + std::to_string(seed));
      // The overlay actually did something on at least one seed; the
      // draw probabilities guarantee it across this grid.
      if (seed == 41 && cfg.name == "bitonic8") {
        EXPECT_FALSE(faults.empty());
      }
    }
  }
}

TEST(FaultedWave, StreamMatchesScalarStream) {
  const Network net = make_bitonic(8);
  WorkloadSpec wl;
  wl.processes = 8;
  wl.tokens_per_process = 32;
  wl.c_max = 3.0;
  SimArena arena;
  for (std::uint64_t seed = 61; seed <= 63; ++seed) {
    Xoshiro256 rng(seed);
    const TimedExecution exec = generate_workload(net, wl, rng);
    fault::FaultPlan plan;
    plan.enabled = true;
    plan.p_token_loss = 0.25;
    plan.p_stuck_balancer = 0.2;
    const SimFaults faults = fault::draw_sim_faults(net, exec, plan, seed);

    CollectSink scalar_collect, wave_collect;
    StreamingConsistency scalar_cons, wave_cons;
    TeeSink scalar_tee(scalar_collect, scalar_cons);
    TeeSink wave_tee(wave_collect, wave_cons);
    const SimulationResult s =
        simulate_stream(exec, faults, arena, scalar_tee);
    const SimulationResult w =
        simulate_wave_stream(exec, faults, arena, wave_tee);
    ASSERT_TRUE(s.ok()) << s.error;
    ASSERT_TRUE(w.ok()) << w.error;
    scalar_cons.finish();
    wave_cons.finish();
    EXPECT_EQ(scalar_collect.trace(), wave_collect.trace());
    expect_same_report(scalar_cons.report(), wave_cons.report());
  }
}

// ---------------------------------------------------------------------
// Sparse process ids: the interpreters size per-process state by the
// processes that have a token, never by the largest id.
// ---------------------------------------------------------------------

Trace trace_of(SimulationResult sim) {
  EXPECT_TRUE(sim.ok()) << sim.error;
  return std::move(sim.trace);
}

template <class Run>
Trace streamed(Run&& run) {
  CollectSink sink;
  const SimulationResult sim = run(sink);
  EXPECT_TRUE(sim.ok()) << sim.error;
  EXPECT_TRUE(sim.trace.empty());
  return sink.take();
}

using EntryPoint = std::function<Trace(const TimedExecution&)>;

/// The ten simulate* entry points, each returning the records it
/// collected or streamed; the four faulted ones run under `faults`.
std::vector<std::pair<std::string, EntryPoint>> entry_points(
    SimArena& arena, const SimFaults& faults) {
  return {
      {"simulate", [](const TimedExecution& e) { return trace_of(simulate(e)); }},
      {"simulate(arena)",
       [&](const TimedExecution& e) { return trace_of(simulate(e, arena)); }},
      {"simulate_recorded",
       [](const TimedExecution& e) { return trace_of(simulate_recorded(e)); }},
      {"simulate_stream",
       [&](const TimedExecution& e) {
         return streamed(
             [&](TraceSink& s) { return simulate_stream(e, arena, s); });
       }},
      {"simulate_wave",
       [&](const TimedExecution& e) { return trace_of(simulate_wave(e, arena)); }},
      {"simulate_wave_stream",
       [&](const TimedExecution& e) {
         return streamed(
             [&](TraceSink& s) { return simulate_wave_stream(e, arena, s); });
       }},
      {"simulate(faults)",
       [&](const TimedExecution& e) {
         return trace_of(simulate(e, faults, arena));
       }},
      {"simulate_stream(faults)",
       [&](const TimedExecution& e) {
         return streamed(
             [&](TraceSink& s) { return simulate_stream(e, faults, arena, s); });
       }},
      {"simulate_wave(faults)",
       [&](const TimedExecution& e) {
         return trace_of(simulate_wave(e, faults, arena));
       }},
      {"simulate_wave_stream(faults)",
       [&](const TimedExecution& e) {
         return streamed([&](TraceSink& s) {
           return simulate_wave_stream(e, faults, arena, s);
         });
       }},
  };
}

TEST(SparseProcessIds, EveryEntryPointMatchesTheDenseSchedule) {
  const Network net = make_bitonic(8);
  WorkloadSpec wl;
  wl.processes = 6;
  wl.tokens_per_process = 8;
  wl.c_max = 3.0;
  Xoshiro256 rng(17);
  const TimedExecution dense = generate_workload(net, wl, rng);
  // Process p becomes an id up to 0xFFFFFFF0, in the same order.
  const auto sparse_id = [&](ProcessId p) {
    return 0xFFFFFFF0u - (wl.processes - 1 - p) * 0x01000000u;
  };
  TimedExecution sparse = dense;
  for (TokenPlan& p : sparse.plans) p.process = sparse_id(p.process);
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.p_token_loss = 0.2;
  plan.p_stuck_balancer = 0.2;
  plan.p_process_crash = 0.2;
  const SimFaults faults = fault::draw_sim_faults(net, dense, plan, 5);
  ASSERT_FALSE(faults.empty());

  SimArena arena;
  for (const auto& [name, run] : entry_points(arena, faults)) {
    Trace want = run(dense);
    ASSERT_FALSE(want.empty()) << name;
    for (TokenRecord& r : want) r.process = sparse_id(r.process);
    EXPECT_EQ(run(sparse), want) << name;
  }
}

// Sparse token ids: per-token state, the fault overlay included, is
// indexed by plan, so a schedule whose ids reach 0xFFFFFFF0 costs what
// its dense twin costs.
TEST(SparseTokenIds, EveryEntryPointMatchesTheDenseSchedule) {
  const Network net = make_bitonic(8);
  WorkloadSpec wl;
  wl.processes = 6;
  wl.tokens_per_process = 8;
  wl.c_max = 3.0;
  Xoshiro256 rng(19);
  const TimedExecution dense = generate_workload(net, wl, rng);
  const std::size_t n = dense.plans.size();
  // Token t becomes an id up to 0xFFFFFFF0, in the same order, so the
  // step order (which breaks exact ties by token id) is unchanged.
  const auto sparse_id = [&](TokenId t) {
    return static_cast<TokenId>(0xFFFFFFF0u - (n - 1 - t) * 0x00100000u);
  };
  TimedExecution sparse = dense;
  for (TokenPlan& p : sparse.plans) p.token = sparse_id(p.token);
  // Drawn on either schedule, the overlay is the same: the draw visits
  // plans, never ids.
  const SimFaults dense_faults =
      fault::draw_sim_faults(net, dense, mixed_fault_plan(), 19);
  const SimFaults sparse_faults =
      fault::draw_sim_faults(net, sparse, mixed_fault_plan(), 19);
  ASSERT_GT(dense_faults.tokens_lost, 0u);
  EXPECT_EQ(sparse_faults.lost_before_hop.size(), n);
  EXPECT_EQ(sparse_faults.lost_before_hop, dense_faults.lost_before_hop);
  EXPECT_EQ(sparse_faults.stuck, dense_faults.stuck);
  EXPECT_EQ(sparse_faults.tokens_lost, dense_faults.tokens_lost);
  EXPECT_EQ(sparse_faults.tokens_not_issued, dense_faults.tokens_not_issued);
  EXPECT_EQ(sparse_faults.balancers_stuck, dense_faults.balancers_stuck);
  EXPECT_EQ(sparse_faults.processes_crashed, dense_faults.processes_crashed);

  SimArena dense_arena;
  SimArena sparse_arena;
  const auto dense_runs = entry_points(dense_arena, dense_faults);
  const auto sparse_runs = entry_points(sparse_arena, sparse_faults);
  for (std::size_t k = 0; k < dense_runs.size(); ++k) {
    const std::string& name = dense_runs[k].first;
    Trace want = dense_runs[k].second(dense);
    if (name.ends_with("(faults)")) {
      ASSERT_FALSE(want.empty()) << name;
      ASSERT_LT(want.size(), n) << name;
    } else {
      ASSERT_EQ(want.size(), n) << name;
    }
    for (TokenRecord& r : want) r.token = sparse_id(r.token);
    EXPECT_EQ(sparse_runs[k].second(sparse), want) << name;
  }
  // The step log names the schedule's token ids.
  std::vector<Step> want = simulate_recorded(dense).steps;
  ASSERT_EQ(want.size(), n * (net.depth() + 1));
  for (Step& s : want) s.token = sparse_id(s.token);
  EXPECT_EQ(simulate_recorded(sparse).steps, want);
}

// ---------------------------------------------------------------------
// Engine: RunSpec::wave_exec flips the interpreter, nothing else.
// ---------------------------------------------------------------------

void expect_same_sweep_json(engine::SweepSpec sweep) {
  sweep.base.wave_exec = false;
  sweep.threads = 1;
  const std::string scalar1 = engine::to_json(engine::sweep_stats(sweep));
  sweep.base.wave_exec = true;
  const std::string wave1 = engine::to_json(engine::sweep_stats(sweep));
  sweep.threads = 4;
  const std::string wave4 = engine::to_json(engine::sweep_stats(sweep));
  EXPECT_EQ(scalar1, wave1);
  EXPECT_EQ(scalar1, wave4);
}

TEST(EngineWaveExec, SweepJsonIdenticalPristine) {
  engine::SweepSpec sweep;
  sweep.base.network = "bitonic";
  sweep.base.width = 8;
  sweep.base.c_max = 3.0;
  sweep.base.seed = 0xABCD;
  sweep.trials = 48;
  expect_same_sweep_json(sweep);
}

TEST(EngineWaveExec, SweepJsonIdenticalStreaming) {
  engine::SweepSpec sweep;
  sweep.base.network = "periodic";
  sweep.base.width = 8;
  sweep.base.c_max = 3.0;
  sweep.base.seed = 0x1234;
  sweep.base.keep_trace = false;  // native streaming path
  sweep.trials = 48;
  expect_same_sweep_json(sweep);
}

TEST(EngineWaveExec, SweepJsonIdenticalFaulted) {
  engine::SweepSpec sweep;
  sweep.base.network = "bitonic";
  sweep.base.width = 8;
  sweep.base.seed = 0x5678;
  sweep.base.fault.enabled = true;
  sweep.base.fault.p_token_loss = 0.15;
  sweep.base.fault.p_stuck_balancer = 0.1;
  sweep.base.fault.p_process_crash = 0.1;
  sweep.trials = 48;
  expect_same_sweep_json(sweep);
}

TEST(EngineWaveExec, WaveBackendFaultedRunIdentical) {
  // The wave backend interprets its built schedule once, under the
  // overlay, like every simulated backend; wave_exec must not change the
  // result.
  engine::RunSpec spec;
  spec.backend = "wave";
  spec.network = "bitonic";
  spec.width = 8;
  spec.ell = 1;
  spec.seed = 5;
  spec.fault.enabled = true;
  spec.fault.p_token_loss = 0.2;
  const engine::RunResult scalar = engine::run_backend(spec);
  spec.wave_exec = true;
  const engine::RunResult wave = engine::run_backend(spec);
  ASSERT_TRUE(scalar.ok()) << scalar.error;
  ASSERT_TRUE(wave.ok()) << wave.error;
  ASSERT_EQ(scalar.trace.size(), wave.trace.size());
  for (std::size_t i = 0; i < scalar.trace.size(); ++i) {
    EXPECT_EQ(scalar.trace[i], wave.trace[i]);
  }
  EXPECT_EQ(scalar.metrics, wave.metrics);
}

}  // namespace
}  // namespace cn
