// Experiment engine: registry coverage, backend parity with the direct
// pipeline, sweep determinism across thread counts, and error surfacing
// (failed trials must be counted, not silently folded into `trials`).
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "core/constructions.hpp"
#include "engine/engine.hpp"
#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "trace/consistency.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"
#include "trace/serialize.hpp"
#include "util/rng.hpp"

namespace {

using namespace cn;

TEST(EngineRegistry, BuiltinsRegistered) {
  const std::set<std::string> expected = {
      "simulator", "sim_burst",      "sim_heterogeneous", "wave",
      "optimizer", "msg",            "concurrent",        "fetch_inc",
      "mcs",       "combining_tree", "diffracting_tree",  "replay",
      "service"};
  const std::vector<std::string> names = engine::backend_names();
  const std::set<std::string> have(names.begin(), names.end());
  for (const std::string& key : expected) {
    EXPECT_TRUE(have.count(key)) << "missing backend: " << key;
    const engine::TraceSource* src = engine::find_backend(key);
    ASSERT_NE(src, nullptr);
    EXPECT_EQ(src->name(), key);
    EXPECT_FALSE(src->description().empty());
  }
  EXPECT_EQ(engine::find_backend("no_such_backend"), nullptr);
}

TEST(EngineRegistry, UnknownBackendIsAnErrorResult) {
  engine::RunSpec spec;
  spec.backend = "no_such_backend";
  const engine::RunResult res = engine::run_backend(spec);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.error_kind, engine::ErrorKind::kSpecInvalid);
  EXPECT_NE(res.error.find("no_such_backend"), std::string::npos);
  // The error names the registry, so a config typo surfaces the menu.
  for (const std::string& name : engine::backend_names()) {
    EXPECT_NE(res.error.find(name), std::string::npos) << name;
  }
}

// The simulator backend must be a pure repackaging of the direct
// generate_workload -> simulate -> analyze pipeline: same seed, same
// trace, same report.
TEST(EngineBackends, SimulatorParityWithDirectPipeline) {
  const Network net = make_bitonic(8);

  engine::RunSpec spec;
  spec.net = &net;
  spec.processes = 6;
  spec.ops_per_process = 5;
  spec.c_min = 1.0;
  spec.c_max = 2.75;
  spec.local_delay_min = 0.5;
  spec.seed = 0xD1CE;
  const engine::RunResult res = engine::run_backend(spec);
  ASSERT_TRUE(res.ok()) << res.error;

  WorkloadSpec wl;
  wl.processes = 6;
  wl.tokens_per_process = 5;
  wl.c_min = 1.0;
  wl.c_max = 2.75;
  wl.local_delay_min = 0.5;
  wl.local_delay_max = 0.5 + 2.0;  // RunSpec default: local_delay_min + 2
  Xoshiro256 rng(0xD1CE);
  const TimedExecution exec = generate_workload(net, wl, rng);
  const SimulationResult sim = simulate(exec);
  ASSERT_TRUE(sim.ok());
  const ConsistencyReport direct = analyze(sim.trace);

  ASSERT_EQ(res.trace.size(), sim.trace.size());
  for (std::size_t i = 0; i < sim.trace.size(); ++i) {
    EXPECT_EQ(res.trace[i].token, sim.trace[i].token);
    EXPECT_EQ(res.trace[i].process, sim.trace[i].process);
    EXPECT_EQ(res.trace[i].value, sim.trace[i].value);
    EXPECT_DOUBLE_EQ(res.trace[i].t_in, sim.trace[i].t_in);
    EXPECT_DOUBLE_EQ(res.trace[i].t_out, sim.trace[i].t_out);
  }
  EXPECT_EQ(res.report.non_linearizable, direct.non_linearizable);
  EXPECT_EQ(res.report.non_sequentially_consistent,
            direct.non_sequentially_consistent);
  EXPECT_DOUBLE_EQ(res.report.f_nl, direct.f_nl);
  EXPECT_DOUBLE_EQ(res.report.f_nsc, direct.f_nsc);
}

// Named-network resolution must agree with passing the network in.
TEST(EngineBackends, NamedNetworkMatchesExplicitNetwork) {
  engine::RunSpec by_name;
  by_name.network = "periodic";
  by_name.width = 8;
  by_name.seed = 17;

  const Network net = make_periodic(8);
  engine::RunSpec by_ptr = by_name;
  by_ptr.net = &net;

  const engine::RunResult a = engine::run_backend(by_name);
  const engine::RunResult b = engine::run_backend(by_ptr);
  ASSERT_TRUE(a.ok()) << a.error;
  ASSERT_TRUE(b.ok()) << b.error;
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].value, b.trace[i].value);
    EXPECT_DOUBLE_EQ(a.trace[i].t_out, b.trace[i].t_out);
  }
}

TEST(EngineBackends, WaveBackendReportsSplitMetrics) {
  engine::RunSpec spec;
  spec.backend = "wave";
  spec.network = "bitonic";
  spec.width = 8;
  spec.ell = 1;
  const engine::RunResult res = engine::run_backend(spec);
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_GT(res.metric("required_ratio"), 1.0);
  EXPECT_GT(res.metric("ratio_used"), res.metric("required_ratio") - 1e-9);
  EXPECT_GT(res.metric("wave1_size"), 0.0);
  // The three-wave execution is the paper's F_nl = F_nsc = 1/3 witness.
  EXPECT_GT(res.report.f_nl, 0.0);
  EXPECT_GT(res.report.f_nsc, 0.0);
}

TEST(EngineSweep, TrialSeedIsPureAndSpread) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t t = 0; t < 256; ++t) {
    const std::uint64_t s = engine::trial_seed(42, t);
    EXPECT_EQ(s, engine::trial_seed(42, t));  // pure function of (base, t)
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 256u);                        // no collisions
  EXPECT_NE(engine::trial_seed(42, 0), engine::trial_seed(43, 0));
}

// The acceptance criterion: aggregates (and the formatted report built
// from them) must be byte-identical at any sweeper thread count.
TEST(EngineSweep, DeterministicAcrossThreadCounts) {
  engine::SweepSpec sweep;
  sweep.base.network = "bitonic";
  sweep.base.width = 8;
  sweep.base.c_max = 3.0;  // past the ratio-2 bound so violations occur
  sweep.base.seed = 0xFEED;
  sweep.trials = 96;

  sweep.threads = 1;
  const engine::SweepStats one = engine::sweep_stats(sweep);
  sweep.threads = 2;
  const engine::SweepStats two = engine::sweep_stats(sweep);
  sweep.threads = 8;
  const engine::SweepStats eight = engine::sweep_stats(sweep);

  for (const engine::SweepStats* s : {&two, &eight}) {
    EXPECT_EQ(s->trials, one.trials);
    EXPECT_EQ(s->completed, one.completed);
    EXPECT_EQ(s->errors, one.errors);
    EXPECT_EQ(s->lin_violations, one.lin_violations);
    EXPECT_EQ(s->sc_violations, one.sc_violations);
    EXPECT_EQ(s->worst_f_nl, one.worst_f_nl);    // exact, not approximate
    EXPECT_EQ(s->worst_f_nsc, one.worst_f_nsc);
    EXPECT_EQ(s->total_tokens, one.total_tokens);
    EXPECT_EQ(s->metric_sums, one.metric_sums);  // summed in trial order
    EXPECT_EQ(engine::format_report(sweep.base, *s),
              engine::format_report(sweep.base, one));
    EXPECT_EQ(engine::to_json(*s), engine::to_json(one));
  }
  EXPECT_EQ(one.completed, one.trials);
  EXPECT_GT(one.total_tokens, 0u);
}

// keep_results returns per-trial results in trial order, matching a
// direct run with the derived seed.
TEST(EngineSweep, KeepResultsMatchesDirectRuns) {
  engine::SweepSpec sweep;
  sweep.base.network = "bitonic";
  sweep.base.width = 4;
  sweep.base.processes = 4;
  sweep.base.ops_per_process = 2;
  sweep.base.seed = 99;
  sweep.trials = 5;
  sweep.threads = 3;
  sweep.keep_results = true;
  const engine::SweepOutcome out = engine::sweep(sweep);
  ASSERT_EQ(out.results.size(), 5u);
  for (std::uint64_t t = 0; t < 5; ++t) {
    engine::RunSpec direct = sweep.base;
    direct.seed = engine::trial_seed(99, t);
    const engine::RunResult ref = engine::run_backend(direct);
    ASSERT_TRUE(out.results[t].ok());
    ASSERT_EQ(out.results[t].trace.size(), ref.trace.size());
    for (std::size_t i = 0; i < ref.trace.size(); ++i) {
      EXPECT_EQ(out.results[t].trace[i].value, ref.trace[i].value);
    }
  }
}

// The old bench loop silently dropped failed simulations while still
// counting them toward `trials`. Failures must now be surfaced.
TEST(EngineSweep, ErrorsAreCountedAndFirstErrorPropagates) {
  engine::SweepSpec sweep;
  sweep.base.network = "bitonic";
  sweep.base.width = 6;  // not a power of two: every trial fails
  sweep.trials = 7;
  sweep.threads = 4;
  const engine::SweepStats stats = engine::sweep_stats(sweep);
  EXPECT_EQ(stats.trials, 7u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.errors, 7u);
  EXPECT_FALSE(stats.first_error.empty());
  EXPECT_EQ(stats.total_tokens, 0u);
  // The taxonomy classifies all of them as spec_invalid, and the entry
  // of the lowest-index failed trial carries the first_error message.
  ASSERT_EQ(stats.error_table.count("spec_invalid"), 1u);
  EXPECT_EQ(stats.error_table.at("spec_invalid").count, 7u);
  EXPECT_EQ(stats.error_table.at("spec_invalid").first_trial, 0u);
  EXPECT_EQ(stats.error_table.at("spec_invalid").first_message,
            stats.first_error);
  // And the human-readable report carries them.
  const std::string report = engine::format_report(sweep.base, stats);
  EXPECT_NE(report.find("first error:"), std::string::npos);
  EXPECT_NE(report.find("spec_invalid"), std::string::npos);
  EXPECT_NE(engine::to_json(stats).find("first_error"), std::string::npos);
  EXPECT_NE(engine::to_json(stats).find("error_table"), std::string::npos);
}

// A clean sweep must not grow new JSON fields: the taxonomy and retry
// counters appear only when something went wrong.
TEST(EngineSweep, CleanSweepJsonIsUnchangedByTheTaxonomy) {
  engine::SweepSpec sweep;
  sweep.base.network = "bitonic";
  sweep.base.width = 4;
  sweep.base.processes = 4;
  sweep.base.ops_per_process = 2;
  sweep.trials = 4;
  const engine::SweepStats stats = engine::sweep_stats(sweep);
  ASSERT_EQ(stats.errors, 0u);
  const std::string j = engine::to_json(stats);
  EXPECT_EQ(j.find("error_table"), std::string::npos);
  EXPECT_EQ(j.find("retried_trials"), std::string::npos);
  EXPECT_EQ(j.find("fault"), std::string::npos);
}

// ---------------------------------------------------------------------
// Streaming mode (spec.keep_trace = false): incremental analysis, empty
// trace, identical results.
// ---------------------------------------------------------------------

/// The deterministic backends must serialize to the exact same JSON in
/// streaming mode as in collect mode (same report, same metrics), with
/// the trace left unmaterialized. The replay backend reads a file this
/// test records first.
TEST(EngineStreaming, StreamMatchesCollectAcrossBackends) {
  const std::string recorded = testing::TempDir() + "stream_vs_collect.trace";
  {
    engine::RunSpec rec;
    rec.network = "bitonic";
    rec.width = 8;
    rec.c_max = 3.0;
    rec.seed = 0xBEEF;
    rec.record_path = recorded;
    const engine::RunResult res = engine::run_backend(rec);
    ASSERT_TRUE(res.ok()) << res.error;
  }
  for (const std::string& backend :
       {std::string("simulator"), std::string("sim_burst"),
        std::string("sim_heterogeneous"), std::string("msg"),
        std::string("wave"), std::string("optimizer"),
        std::string("replay")}) {
    engine::RunSpec spec;
    spec.backend = backend;
    spec.network = "bitonic";
    spec.width = 8;
    spec.processes = 6;
    spec.ops_per_process = 5;
    spec.c_max = 3.0;  // past the ratio-2 bound so flags exist to disagree on
    spec.seed = 0xBEEF;
    spec.opt_iterations = 40;
    spec.opt_restarts = 2;
    spec.replay_path = recorded;

    const engine::RunResult collect = engine::run_backend(spec);
    ASSERT_TRUE(collect.ok()) << backend << ": " << collect.error;
    ASSERT_FALSE(collect.trace.empty()) << backend;

    engine::RunSpec streamed_spec = spec;
    streamed_spec.keep_trace = false;
    const engine::RunResult streamed = engine::run_backend(streamed_spec);
    ASSERT_TRUE(streamed.ok()) << backend << ": " << streamed.error;
    EXPECT_TRUE(streamed.trace.empty()) << backend;
    EXPECT_EQ(streamed.report.non_linearizable,
              collect.report.non_linearizable)
        << backend;
    EXPECT_EQ(streamed.report.non_sequentially_consistent,
              collect.report.non_sequentially_consistent)
        << backend;
    EXPECT_EQ(engine::to_json(streamed), engine::to_json(collect)) << backend;
  }
  std::remove(recorded.c_str());
}

/// The heterogeneous backend's per-process metrics come from one sink in
/// both modes, and must match the batch per-process oracle on the
/// collected trace. In the first spec a paced process violates SC, in
/// the second only the hare does.
TEST(EngineStreaming, HeterogeneousMetricsAgreeOnAViolation) {
  struct Case {
    double hare_delay;
    std::uint64_t seed;
    bool hare_sc;
    bool others_sc;
  };
  for (const Case& c :
       {Case{0.5, 1, true, false}, Case{0.0, 61, false, true}}) {
    SCOPED_TRACE(c.seed);
    engine::RunSpec spec;
    spec.backend = "sim_heterogeneous";
    spec.network = "bitonic";
    spec.width = 8;
    spec.c_max = 10.0;
    spec.hare_delay = c.hare_delay;
    spec.tortoise_delay = 0.0;
    spec.horizon = 40.0;
    spec.seed = c.seed;
    const engine::RunResult collect = engine::run_backend(spec);
    ASSERT_TRUE(collect.ok()) << collect.error;

    double hare_ops = 0.0;
    for (const TokenRecord& r : collect.trace) hare_ops += r.process == 0;
    const bool hare_sc = is_sequentially_consistent_for(collect.trace, 0);
    bool others_sc = true;
    for (ProcessId p = 1; p < spec.width; ++p) {
      others_sc &= is_sequentially_consistent_for(collect.trace, p);
    }
    // The violation each case is about.
    EXPECT_EQ(hare_sc, c.hare_sc);
    EXPECT_EQ(others_sc, c.others_sc);

    spec.keep_trace = false;
    const engine::RunResult streamed = engine::run_backend(spec);
    ASSERT_TRUE(streamed.ok()) << streamed.error;
    EXPECT_TRUE(streamed.trace.empty());
    for (const engine::RunResult* res : {&collect, &streamed}) {
      EXPECT_EQ(res->metric("hare_sc", -1.0), hare_sc ? 1.0 : 0.0);
      EXPECT_EQ(res->metric("others_sc", -1.0), others_sc ? 1.0 : 0.0);
      EXPECT_EQ(res->metric("hare_ops", -1.0), hare_ops);
      EXPECT_EQ(res->metric("other_ops", -1.0),
                static_cast<double>(collect.trace.size()) - hare_ops);
    }
    EXPECT_EQ(engine::to_json(streamed), engine::to_json(collect));
  }
}

/// Fault-injected streaming: the degradation metrics come from the
/// accumulator instead of the batch pass, and must agree exactly.
/// Natively streaming faulted producers: the simulator's overlay on a
/// workload and on the wave and optimizer schedules, and the msg kernel
/// (message loss drops an open issue slot mid-flight; duplication is off,
/// so the msg run streams natively too).
TEST(EngineStreaming, FaultedStreamMatchesCollect) {
  for (const char* backend : {"simulator", "msg", "wave", "optimizer"}) {
    SCOPED_TRACE(backend);
    engine::RunSpec spec;
    spec.backend = backend;
    spec.network = "bitonic";
    spec.width = 8;
    spec.processes = 6;
    spec.ops_per_process = 6;
    spec.c_max = 3.0;
    spec.seed = 0xFA57;
    spec.fault.enabled = true;
    spec.fault.seed = 7;
    spec.fault.p_token_loss = 0.1;
    spec.fault.p_stuck_balancer = 0.1;
    spec.fault.p_process_crash = 0.15;
    spec.fault.p_msg_duplicate = 0.0;
    spec.opt_iterations = 40;
    spec.opt_restarts = 2;

    const engine::RunResult collect = engine::run_backend(spec);
    ASSERT_TRUE(collect.ok()) << collect.error;
    EXPECT_GT(collect.metric("fault_tokens_lost"), 0.0);

    engine::RunSpec streamed_spec = spec;
    streamed_spec.keep_trace = false;
    const engine::RunResult streamed = engine::run_backend(streamed_spec);
    ASSERT_TRUE(streamed.ok()) << streamed.error;
    EXPECT_TRUE(streamed.trace.empty());
    EXPECT_EQ(engine::to_json(streamed), engine::to_json(collect));
    EXPECT_EQ(streamed.metric("counting_violation"),
              collect.metric("counting_violation"));
    EXPECT_EQ(streamed.metric("smoothness_gap"),
              collect.metric("smoothness_gap"));
  }
}

/// Message duplication cannot stream natively (a duplicated delivery
/// re-counts a token after emission); the msg backend must fall back to
/// collect-then-replay and still agree with the collecting run.
TEST(EngineStreaming, MsgDuplicationFallsBackAndMatches) {
  engine::RunSpec spec;
  spec.backend = "msg";
  spec.network = "bitonic";
  spec.width = 8;
  spec.processes = 5;
  spec.ops_per_process = 4;
  spec.seed = 0xD0B;
  spec.fault.enabled = true;
  spec.fault.seed = 11;
  spec.fault.p_msg_duplicate = 0.3;

  const engine::RunResult collect = engine::run_backend(spec);
  ASSERT_TRUE(collect.ok()) << collect.error;

  engine::RunSpec streamed_spec = spec;
  streamed_spec.keep_trace = false;
  const engine::RunResult streamed = engine::run_backend(streamed_spec);
  ASSERT_TRUE(streamed.ok()) << streamed.error;
  EXPECT_TRUE(streamed.trace.empty());
  EXPECT_EQ(engine::to_json(streamed), engine::to_json(collect));
}

/// Real-thread backends stream too (no cross-run determinism to compare
/// against, but the incremental report must cover every operation).
TEST(EngineStreaming, ConcurrentBackendStreams) {
  engine::RunSpec spec;
  spec.backend = "fetch_inc";
  spec.threads = 4;
  spec.ops_per_thread = 40;
  spec.keep_trace = false;
  const engine::RunResult res = engine::run_backend(spec);
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_TRUE(res.trace.empty());
  EXPECT_EQ(res.report.total, 4u * 40u);
  // fetch_inc is linearizable: the incremental checker must agree.
  EXPECT_TRUE(res.report.linearizable());
}

/// The acceptance criterion: a streaming sweep produces the identical
/// SweepStats JSON as a collecting sweep, at any thread count. Fault
/// injection is on so real violations and degradation metric sums flow
/// through both pipelines (random pristine latencies rarely violate —
/// stuck balancers genuinely do).
TEST(EngineStreaming, SweepJsonIdenticalToCollectAtAnyThreadCount) {
  engine::SweepSpec sweep;
  sweep.base.network = "bitonic";
  sweep.base.width = 8;
  sweep.base.c_max = 3.0;
  sweep.base.seed = 0x5EED;
  sweep.base.fault.enabled = true;
  sweep.base.fault.seed = 9;
  sweep.base.fault.p_stuck_balancer = 0.1;
  sweep.base.fault.p_token_loss = 0.05;
  sweep.trials = 48;

  sweep.threads = 1;
  const engine::SweepStats collect1 = engine::sweep_stats(sweep);
  sweep.threads = 4;
  const engine::SweepStats collect4 = engine::sweep_stats(sweep);

  sweep.base.keep_trace = false;
  sweep.threads = 1;
  const engine::SweepStats stream1 = engine::sweep_stats(sweep);
  sweep.threads = 4;
  const engine::SweepStats stream4 = engine::sweep_stats(sweep);

  ASSERT_EQ(collect1.completed, collect1.trials);
  EXPECT_GT(collect1.lin_violations, 0u);  // the sweep actually flags
  EXPECT_EQ(engine::to_json(collect4), engine::to_json(collect1));
  EXPECT_EQ(engine::to_json(stream1), engine::to_json(collect1));
  EXPECT_EQ(engine::to_json(stream4), engine::to_json(collect1));
}

// ---------------------------------------------------------------------
// Trace record / replay through the engine.
// ---------------------------------------------------------------------

TEST(EngineReplay, RecordThenReplayReproducesTheReport) {
  const std::string path = testing::TempDir() + "engine_record.trace";
  engine::RunSpec spec;
  spec.network = "bitonic";
  spec.width = 8;
  spec.processes = 6;
  spec.ops_per_process = 5;
  spec.c_max = 3.0;
  spec.seed = 0x2EC0;
  spec.record_path = path;
  spec.keep_trace = false;  // recording forces collection, then drops
  const engine::RunResult recorded = engine::run_backend(spec);
  ASSERT_TRUE(recorded.ok()) << recorded.error;
  EXPECT_TRUE(recorded.trace.empty());  // dropped after the write
  ASSERT_GT(recorded.report.total, 0u);

  engine::RunSpec replay;
  replay.backend = "replay";
  replay.replay_path = path;
  const engine::RunResult replayed = engine::run_backend(replay);
  ASSERT_TRUE(replayed.ok()) << replayed.error;
  EXPECT_EQ(replayed.trace.size(), recorded.report.total);
  EXPECT_EQ(static_cast<std::size_t>(replayed.metric("replayed_records")),
            recorded.report.total);
  EXPECT_EQ(replayed.report.non_linearizable,
            recorded.report.non_linearizable);
  EXPECT_EQ(replayed.report.non_sequentially_consistent,
            recorded.report.non_sequentially_consistent);
  std::remove(path.c_str());
}

/// A faulted run's smoothness gap spans every sink the run can reach,
/// also the ones no record names (a stuck balancer can starve a sink).
/// The trace file carries that range, so a replay reports the gap of the
/// run that recorded it, collected and streamed.
TEST(EngineReplay, FaultedReplayKeepsTheRecordedSinkRange) {
  const std::string path = testing::TempDir() + "faulted_record.trace";
  std::uint32_t starved = 0;  ///< Seeds whose gap counts an unnamed sink.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    engine::RunSpec spec;
    spec.network = "bitonic";
    spec.width = 8;
    spec.seed = seed;
    spec.fault.enabled = true;
    spec.fault.p_stuck_balancer = 0.5;
    engine::RunSpec streamed = spec;
    streamed.keep_trace = false;
    spec.record_path = path;
    const engine::RunResult recorded = engine::run_backend(spec);
    ASSERT_TRUE(recorded.ok()) << recorded.error;
    const double gap = recorded.metric("smoothness_gap", -1.0);
    if (fault::degradation(recorded.trace, 0).smoothness_gap != gap) {
      ++starved;
    }
    EXPECT_EQ(engine::run_backend(streamed).metric("smoothness_gap", -1.0),
              gap)
        << "seed " << seed;
    for (const bool keep : {true, false}) {
      engine::RunSpec replay;
      replay.backend = "replay";
      replay.replay_path = path;
      replay.keep_trace = keep;
      replay.fault.enabled = true;
      const engine::RunResult replayed = engine::run_backend(replay);
      ASSERT_TRUE(replayed.ok()) << replayed.error;
      EXPECT_EQ(replayed.sink_range, 8u);
      EXPECT_EQ(replayed.metric("smoothness_gap", -1.0), gap)
          << "seed " << seed << (keep ? " collect" : " stream");
    }
  }
  EXPECT_GT(starved, 0u) << "no seed starves a sink: the range is untested";
  std::remove(path.c_str());
}

/// A classic service's records carry the flattened sink s * w + u, so
/// its runs (and their replays) span shards * w sinks; an elastic
/// service's records carry the network's own sinks.
TEST(EngineReplay, ServiceSinkRangeIsItsRecordedSinks) {
  const std::string path = testing::TempDir() + "service_record.trace";
  engine::RunSpec spec;
  spec.backend = "service";
  spec.network = "bitonic";
  spec.width = 4;
  spec.threads = 2;
  spec.ops_per_thread = 50;
  spec.service.shards = 3;
  spec.fault.enabled = true;  // inert: asks for the degradation report
  spec.record_path = path;
  const engine::RunResult recorded = engine::run_backend(spec);
  ASSERT_TRUE(recorded.ok()) << recorded.error;
  EXPECT_EQ(recorded.sink_range, 12u);
  engine::RunSpec replay;
  replay.backend = "replay";
  replay.replay_path = path;
  replay.fault.enabled = true;
  const engine::RunResult replayed = engine::run_backend(replay);
  ASSERT_TRUE(replayed.ok()) << replayed.error;
  EXPECT_EQ(replayed.sink_range, 12u);
  EXPECT_EQ(replayed.metric("smoothness_gap", -1.0),
            recorded.metric("smoothness_gap", -1.0));

  engine::RunSpec elastic = spec;
  elastic.record_path.clear();
  elastic.service.elastic.enabled = true;
  elastic.service.elastic.max_level = 1;
  const engine::RunResult el = engine::run_backend(elastic);
  ASSERT_TRUE(el.ok()) << el.error;
  EXPECT_EQ(el.sink_range, 4u);
  std::remove(path.c_str());
}

/// A replayed file may carry any sink and value (TraceReader checks
/// neither), and a faulted replay runs both degradation analyzers on
/// them. Each lone-record file must report what the formula gives in
/// 64-bit arithmetic, collected and streamed: replay has no network, so
/// the sinks are [0, sink + 1).
TEST(EngineReplay, HostileSinksAndValuesReportTheFormula) {
  struct Hostile {
    std::uint32_t sink;
    Value value;
    double counting;  ///< Values {v} are {0} only for v = 0.
    double gap;       ///< 1 when sinks below `sink` count zero.
  };
  const Hostile cases[] = {
      {0xFFFFFFFFu, 0, 0.0, 1.0},
      {0xFFFFFFFEu, 0, 0.0, 1.0},
      {0, ~Value{0}, 1.0, 0.0},
      {0, Value{1} << 40, 1.0, 0.0},
  };
  const std::string path = testing::TempDir() + "hostile.trace";
  for (const Hostile& h : cases) {
    TokenRecord rec;
    rec.sink = h.sink;
    rec.value = h.value;
    rec.t_out = 1.0;
    rec.last_seq = 1;
    ASSERT_EQ(write_trace_file(path, Trace{rec}), "");
    for (const bool keep : {true, false}) {
      engine::RunSpec spec;
      spec.backend = "replay";
      spec.replay_path = path;
      spec.keep_trace = keep;
      spec.fault.enabled = true;
      const std::string what = "sink " + std::to_string(h.sink) + " value " +
                               std::to_string(h.value) +
                               (keep ? " collect" : " stream");
      const engine::RunResult res = engine::run_backend(spec);
      ASSERT_TRUE(res.ok()) << what << ": " << res.error;
      EXPECT_EQ(res.metric("counting_violation"), h.counting) << what;
      EXPECT_EQ(res.metric("smoothness_gap"), h.gap) << what;
      EXPECT_EQ(res.metric("smoothness_violation"), 0.0) << what;
      EXPECT_EQ(res.metric("any_violation"), h.counting) << what;
    }
  }
  std::remove(path.c_str());
}

TEST(EngineBackends, ServiceBackendCountsAndReportsLatency) {
  engine::RunSpec spec;
  spec.backend = "service";
  spec.network = "bitonic";
  spec.width = 8;
  spec.threads = 4;
  spec.ops_per_thread = 100;
  spec.service.shards = 2;
  spec.service.max_batch = 8;
  const engine::RunResult res = engine::run_backend(spec);
  ASSERT_TRUE(res.ok()) << res.error;
  // Closed-loop clients retry rejections, so every op completes and the
  // recorded trace carries a gap-free value set.
  EXPECT_EQ(res.report.total, 400u);
  ASSERT_EQ(res.trace.size(), 400u);
  std::set<std::uint64_t> values;
  for (const TokenRecord& rec : res.trace) values.insert(rec.value);
  EXPECT_EQ(values.size(), 400u);
  EXPECT_EQ(*values.rbegin(), 399u);
  EXPECT_EQ(res.metric("total_ops", -1.0), 400.0);
  EXPECT_EQ(res.metric("shards", -1.0), 2.0);
  EXPECT_GT(res.metric("ops_per_sec", 0.0), 0.0);
  EXPECT_TRUE(res.metrics.count("p50_us"));
  EXPECT_GE(res.metric("p999_us"), res.metric("p50_us"));
}

TEST(EngineBackends, ServiceBackendStreamsWithZeroViolationsAtQuiescence) {
  engine::RunSpec spec;
  spec.backend = "service";
  spec.network = "bitonic";
  spec.width = 8;
  spec.threads = 4;
  spec.ops_per_thread = 80;
  spec.service.shards = 2;
  spec.keep_trace = false;
  const engine::RunResult res = engine::run_backend(spec);
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_TRUE(res.trace.empty());
  EXPECT_EQ(res.report.total, 320u);
}

TEST(EngineBackends, ServiceBackendForwardsChaosDeadlinesAndBatches) {
  // The backend hands spec.service (chaos schedule included) to the
  // service and spec.service_policy to its clients, and drives the
  // batched ingress when service_client_batch > 1.
  engine::RunSpec base;
  base.backend = "service";
  base.network = "bitonic";
  base.width = 8;

  // Shard 1 crashes after 20 processed requests and takes 2 in-flight
  // tickets with it: the worker is respawned, the 2 holes accounted.
  engine::RunSpec crash = base;
  crash.threads = 4;
  crash.ops_per_thread = 100;
  crash.service.chaos.events.push_back({.kind = fault::ChaosKind::kWorkerCrash,
                                        .shard = 1, .at_ops = 20, .lose = 2});
  const engine::RunResult crashed = engine::run_backend(crash);
  ASSERT_TRUE(crashed.ok()) << crashed.error;
  EXPECT_EQ(crashed.metric("crashes", -1.0), 1.0);
  EXPECT_GE(crashed.metric("respawns", -1.0), 1.0);
  EXPECT_EQ(crashed.metric("crash_lost", -1.0), 2.0);
  EXPECT_EQ(crashed.metric("residue_holes", -1.0), 2.0);
  EXPECT_EQ(crashed.metric("audit_exact", -1.0), 1.0);
  EXPECT_EQ(crashed.metric("total_ops", -1.0), 398.0);
  EXPECT_EQ(crashed.report.total, 398u);

  // One unsupervised shard whose worker dies before serving anything:
  // every request outlives its 1 ms deadline, which the backend
  // classifies as kDeadlineExceeded.
  engine::RunSpec dead = base;
  dead.threads = 2;
  dead.ops_per_thread = 3;
  dead.service.shards = 1;
  dead.service.supervise = false;
  dead.service.chaos.events.push_back(
      {.kind = fault::ChaosKind::kWorkerCrash, .at_ops = 0});
  dead.service_policy.deadline_ns = 1'000'000;
  const engine::RunResult expired = engine::run_backend(dead);
  EXPECT_FALSE(expired.ok());
  EXPECT_EQ(expired.error_kind, engine::ErrorKind::kDeadlineExceeded);

  // Batched clients: ceil(150 / 8) = 19 submit_batch calls each, every
  // call one queue cell per shard.
  engine::RunSpec batched = base;
  batched.threads = 4;
  batched.ops_per_thread = 150;
  batched.service_client_batch = 8;
  const engine::RunResult res = engine::run_backend(batched);
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_EQ(res.metric("total_ops", -1.0), 600.0);
  EXPECT_EQ(res.metric("ingress_batches", -1.0), 76.0);
  EXPECT_EQ(res.metric("ingress_cells", -1.0), 152.0);
}

TEST(EngineBackends, ElasticServiceBackendRunsAResizePlan) {
  // A forced resize schedule through two splits and two merges: the
  // backend must report the epoch-transition metrics and the per-epoch
  // audit gate (epochs_ok) must hold, with the union of all epochs'
  // values still gap-free (total_ops == report.total == submissions).
  engine::RunSpec spec;
  spec.backend = "service";
  spec.network = "bitonic";
  spec.width = 8;
  spec.threads = 4;
  spec.ops_per_thread = 150;
  spec.service.max_batch = 8;
  spec.service.elastic.enabled = true;
  spec.service.elastic.max_level = 3;
  spec.service_resize_plan = {1, 2, 1, 0};
  const engine::RunResult res = engine::run_backend(spec);
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_EQ(res.metric("total_ops", -1.0), 600.0);
  EXPECT_EQ(res.metric("epochs", -1.0), 5.0);
  EXPECT_EQ(res.metric("splits", -1.0), 2.0);
  EXPECT_EQ(res.metric("merges", -1.0), 2.0);
  EXPECT_EQ(res.metric("final_level", -1.0), 0.0);
  EXPECT_EQ(res.metric("shards", -1.0), 1.0) << "the final epoch's width";
  EXPECT_EQ(res.metric("epochs_ok", -1.0), 1.0);
  EXPECT_EQ(res.metric("audit_exact", -1.0), 1.0);
  EXPECT_EQ(res.metric("audit_gap_free", -1.0), 1.0);
  ASSERT_EQ(res.trace.size(), 600u);
  std::set<std::uint64_t> values;
  for (const TokenRecord& rec : res.trace) values.insert(rec.value);
  EXPECT_EQ(values.size(), 600u);
  EXPECT_EQ(*values.rbegin(), 599u);
  // Recording mode also reports the per-epoch consistency extremes.
  EXPECT_TRUE(res.metrics.count("max_epoch_f_nl"));
  EXPECT_GE(res.metric("max_epoch_f_nl", -1.0), 0.0);
}

TEST(EngineBackends, ElasticSpecInvalidReasonsSurface) {
  engine::RunSpec spec;
  spec.backend = "service";
  spec.network = "counting_tree";  // not uniformly splittable
  spec.width = 8;
  spec.threads = 1;
  spec.ops_per_thread = 10;
  spec.service.elastic.enabled = true;
  spec.service.elastic.max_level = 1;
  const engine::RunResult tree = engine::run_backend(spec);
  EXPECT_FALSE(tree.ok());
  EXPECT_EQ(tree.error_kind, engine::ErrorKind::kSpecInvalid);
  spec.network = "bitonic";
  spec.service_resize_plan = {1, 9};  // 9 beyond max_level
  const engine::RunResult bad_plan = engine::run_backend(spec);
  EXPECT_FALSE(bad_plan.ok());
  EXPECT_EQ(bad_plan.error_kind, engine::ErrorKind::kSpecInvalid);
  spec.service_resize_plan = {1};
  spec.service.elastic.enabled = false;  // plan without elastic mode
  const engine::RunResult no_elastic = engine::run_backend(spec);
  EXPECT_FALSE(no_elastic.ok());
  EXPECT_EQ(no_elastic.error_kind, engine::ErrorKind::kSpecInvalid);
}

TEST(EngineBackends, ServiceBackendRejectsInvalidSpecs) {
  engine::RunSpec spec;
  spec.backend = "service";
  spec.network = "bitonic";
  spec.width = 8;
  spec.threads = 4;
  spec.ops_per_thread = 10;
  spec.service.shards = 0;
  EXPECT_FALSE(engine::run_backend(spec).ok());
  spec.service.shards = 2;
  spec.threads = 0;
  EXPECT_FALSE(engine::run_backend(spec).ok());
}

TEST(EngineReplay, MissingReplayPathIsSpecInvalid) {
  engine::RunSpec spec;
  spec.backend = "replay";
  const engine::RunResult no_path = engine::run_backend(spec);
  EXPECT_FALSE(no_path.ok());
  spec.replay_path = testing::TempDir() + "missing.trace";
  const engine::RunResult no_file = engine::run_backend(spec);
  EXPECT_FALSE(no_file.ok());
}

/// The committed golden fixture (a recorded three-wave adversary trace —
/// the paper's F_nl = F_nsc = 1/3 witness on bitonic(8)) replayed through
/// the engine must reproduce the counts hardcoded here: a format break
/// shows up as a read error or different counts, not a silent drift.
TEST(EngineReplay, GoldenTraceReplaysWithKnownCounts) {
  engine::RunSpec spec;
  spec.backend = "replay";
  spec.replay_path = std::string(CN_TESTDATA_DIR) + "/golden.trace";
  const engine::RunResult res = engine::run_backend(spec);
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_EQ(res.report.total, 12u);
  EXPECT_EQ(res.report.non_linearizable.size(), 4u);
  EXPECT_EQ(res.report.non_sequentially_consistent.size(), 4u);
  EXPECT_DOUBLE_EQ(res.report.f_nl, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(res.report.f_nsc, 1.0 / 3.0);
}

TEST(EngineResults, JsonShapes) {
  engine::RunSpec spec;
  spec.network = "bitonic";
  spec.width = 4;
  spec.processes = 4;
  spec.ops_per_process = 2;
  const engine::RunResult res = engine::run_backend(spec);
  ASSERT_TRUE(res.ok()) << res.error;
  const std::string j = engine::to_json(res);
  EXPECT_NE(j.find("\"backend\":\"simulator\""), std::string::npos);
  EXPECT_NE(j.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(j.find("\"tokens\":8"), std::string::npos);
  EXPECT_EQ(engine::describe(spec), "simulator on bitonic(4)");
}

}  // namespace
