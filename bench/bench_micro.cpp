// Micro-benchmark report: the per-operation cost of the building blocks
// — single-token traversal (the compiled fast path vs the preserved
// graph-walking reference), the simulator's wave kernels and whole
// interpreter, engine trials, the batch vs streaming analyzers, streaming
// sweeps, real-thread batched traversal, the service shard kernel, the
// service's batched ingress and its start-up, and the adversary's set-up.
//
//   bench_micro [--min-seconds=S] [--out=FILE]
//               [--check [--baseline=FILE] [--check_tolerance=T]]
//
// Prints the report as JSON, or writes it to FILE with --out. The
// checked-in BENCH_micro.json is the tracked baseline; see EXPERIMENTS.md
// ("Micro") for how to read it. --check compares the RATIO metrics (every
// *_speedup / *_over_* key) of the fresh run against the baseline
// (default BENCH_micro.json) and fails — with a per-metric diff — when
// one drops more than T below it (fraction in [0,1), default 0.15);
// absolute rates are machine-dependent and are not gated.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <map>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "concurrent/concurrent_network.hpp"
#include "concurrent/harness.hpp"
#include "core/batch_traversal.hpp"
#include "core/compiled.hpp"
#include "core/constructions.hpp"
#include "core/reference_state.hpp"
#include "core/sequential.hpp"
#include "core/valency.hpp"
#include "core/wave.hpp"
#include "engine/engine.hpp"
#include "service/client.hpp"
#include "service/service.hpp"
#include "sim/adversary.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"
#include "trace/consistency.hpp"
#include "trace/streaming.hpp"

namespace {

using namespace cn;

/// Token ids index a per-state vector, so state memory grows with the
/// largest id. Resetting (or rebuilding) the state every batch keeps the
/// long-running traversal loops at a bounded footprint.
constexpr std::uint32_t kTraversalBatch = 1u << 16;

/// Transitions (balancer hops + the counter step) per token: the unit of
/// the traversal sections' steps/sec, measured once from a recorded run.
std::size_t hops_per_token(const Network& topo) {
  NetworkState probe(topo);
  probe.set_recording(true);
  probe.shepherd(0, 0, 0);
  return probe.log().size();
}

/// One full wave on a uniform network through the kernels the simulator's
/// wave body runs (core/wave.hpp): plan i enters on source i, step_wave
/// advances every plan once per balancer level, then step_wave_counters
/// counts them.
class FullWave {
 public:
  explicit FullWave(const CompiledNetwork& net)
      : net_(net),
        depth_(net.network().depth()),
        plans_(net.fan_in()),
        wire_(net.fan_in()),
        values_(net.fan_in()) {
    for (std::uint32_t i = 0; i < net.fan_in(); ++i) plans_[i] = i;
  }

  void run(CompiledState& state) {
    for (std::uint32_t i = 0; i < net_.fan_in(); ++i) {
      wire_[i] = net_.source_wire(i);
      ++state.source_count[i];
    }
    for (std::uint32_t l = 0; l < depth_; ++l) {
      step_wave(net_, state, plans_, wire_);
    }
    step_wave_counters(net_, state, plans_, wire_,
                       [this](std::size_t k, Value v) { values_[k] = v; });
    cn::bench::do_not_optimize(values_.data());
  }

 private:
  const CompiledNetwork& net_;
  std::uint32_t depth_;
  std::vector<std::uint32_t> plans_;
  std::vector<WireIndex> wire_;
  std::vector<Value> values_;
};

struct TraversalRates {
  std::size_t hops = 0;
  double ref_tokens_per_sec = 0.0;
  double fast_tokens_per_sec = 0.0;
  double wave_tokens_per_sec = 0.0;

  double ref_steps_per_sec() const { return ref_tokens_per_sec * hops; }
  double fast_steps_per_sec() const { return fast_tokens_per_sec * hops; }
  double wave_steps_per_sec() const { return wave_tokens_per_sec * hops; }
  double speedup() const { return fast_tokens_per_sec / ref_tokens_per_sec; }
  double wave_speedup() const {
    return wave_tokens_per_sec / fast_tokens_per_sec;
  }
};

/// Reference graph walk vs compiled fast path vs the simulator's wave
/// kernels (full waves of `width` tokens, FullWave) on bitonic B(width).
///
/// The three sides are measured in short alternating rounds and each side
/// keeps its best rate. On a shared machine a load spike inside one
/// side's window would otherwise skew the ratios arbitrarily; max-of-rates
/// (the classic min-of-times estimator) converges on the undisturbed
/// cost of each side, which is the quantity the speedup claims are about.
TraversalRates measure_traversal(std::uint32_t width, double min_seconds) {
  constexpr int kRounds = 4;
  const Network topo = make_bitonic(width);
  const std::uint32_t src_mask = topo.fan_in() - 1;  // fan-in is pow2
  TraversalRates r;
  r.hops = hops_per_token(topo);
  NetworkState fast_engine(topo);
  const CompiledNetwork compiled(topo);
  CompiledState wave_state(compiled);
  FullWave wave(compiled);
  const double round_seconds = min_seconds / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    r.ref_tokens_per_sec = std::max(
        r.ref_tokens_per_sec,
        cn::bench::measure_rate(kTraversalBatch, round_seconds, [&] {
          // No reset() on the reference engine: rebuild per batch (the
          // construction cost amortizes over 65536 traversals).
          ReferenceNetworkState engine(topo);
          for (TokenId t = 0; t < kTraversalBatch; ++t) {
            cn::bench::do_not_optimize(engine.shepherd(t, t, t & src_mask));
          }
        }));
    r.fast_tokens_per_sec = std::max(
        r.fast_tokens_per_sec,
        cn::bench::measure_rate(kTraversalBatch, round_seconds, [&] {
          fast_engine.reset();
          for (TokenId t = 0; t < kTraversalBatch; ++t) {
            cn::bench::do_not_optimize(fast_engine.shepherd(t, t, t & src_mask));
          }
        }));
    r.wave_tokens_per_sec = std::max(
        r.wave_tokens_per_sec,
        cn::bench::measure_rate(kTraversalBatch, round_seconds, [&] {
          wave_state.reset();
          for (std::uint32_t b = 0; b < kTraversalBatch / width; ++b) {
            wave.run(wave_state);
          }
        }));
  }
  return r;
}

struct TrialRates {
  double fresh_per_sec = 0.0;
  double arena_per_sec = 0.0;

  double speedup() const { return arena_per_sec / fresh_per_sec; }
};

/// Engine trial throughput on bitonic B(8), fresh RunContext per trial
/// (recompiles the routing tables every time) vs one reused arena (the
/// sweep workers' configuration).
TrialRates measure_trials(double min_seconds) {
  const Network topo = make_bitonic(8);
  engine::RunSpec spec;
  spec.net = &topo;
  spec.processes = 8;
  spec.ops_per_process = 8;
  constexpr std::uint64_t kBatch = 64;
  constexpr int kRounds = 4;
  TrialRates r;
  engine::RunContext ctx;
  std::uint64_t seed = 1;
  const double round_seconds = min_seconds / kRounds;
  // Alternating rounds, max of rates — same noise defense as
  // measure_traversal.
  for (int round = 0; round < kRounds; ++round) {
    r.fresh_per_sec = std::max(
        r.fresh_per_sec, cn::bench::measure_rate(kBatch, round_seconds, [&] {
          for (std::uint64_t i = 0; i < kBatch; ++i) {
            spec.seed = seed++;
            cn::bench::do_not_optimize(engine::run_backend(spec));
          }
        }));
    r.arena_per_sec = std::max(
        r.arena_per_sec, cn::bench::measure_rate(kBatch, round_seconds, [&] {
          for (std::uint64_t i = 0; i < kBatch; ++i) {
            spec.seed = seed++;
            cn::bench::do_not_optimize(engine::run_backend(spec, ctx));
          }
        }));
  }
  return r;
}

struct AnalyzerRates {
  std::size_t tokens = 0;
  double batch_tokens_per_sec = 0.0;
  double stream_tokens_per_sec = 0.0;

  double ratio() const { return stream_tokens_per_sec / batch_tokens_per_sec; }
};

/// Batch analyze() vs the streaming checker on one large simulator trace
/// (bitonic B(8), 8 processes, ~32k tokens), pre-sorted into the sink
/// contract's issue order so the streaming side measures only checker
/// cost. Alternating rounds, max of rates — same noise defense as
/// measure_traversal.
AnalyzerRates measure_analyzer(double min_seconds) {
  constexpr int kRounds = 4;
  const Network topo = make_bitonic(8);
  Xoshiro256 rng(7);
  WorkloadSpec spec;
  spec.processes = 8;
  spec.tokens_per_process = 4096;
  spec.c_max = 3.0;
  spec.local_delay_max = 2.0;
  Trace trace = simulate(generate_workload(topo, spec, rng)).trace;
  std::sort(trace.begin(), trace.end(), issue_order_less);
  AnalyzerRates r;
  r.tokens = trace.size();
  StreamingConsistency checker;
  const double round_seconds = min_seconds / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    r.batch_tokens_per_sec = std::max(
        r.batch_tokens_per_sec,
        cn::bench::measure_rate(trace.size(), round_seconds, [&] {
          cn::bench::do_not_optimize(analyze(trace));
        }));
    r.stream_tokens_per_sec = std::max(
        r.stream_tokens_per_sec,
        cn::bench::measure_rate(trace.size(), round_seconds, [&] {
          checker.reset();
          for (const TokenRecord& rec : trace) checker.on_record(rec);
          checker.finish();
          cn::bench::do_not_optimize(checker.report());
        }));
  }
  return r;
}

/// Single-token vs batched traversal on the real-thread shared-memory
/// network, per thread count. The ratio (batch_over_single) is the
/// tracked metric: batching replaces per-token balancer RMWs with one
/// fetch_add per sub-batch at each balancer it reaches, so it must stay
/// a multiple of the single-token rate regardless of the runner's
/// absolute speed. The depth-first split never re-merges sub-batches, so
/// this is not one RMW per balancer: a 32-token batch on B(8) pays 95
/// (63 balancer + 32 counter RMWs).
struct ConcurrentBatchRates {
  static constexpr std::array<std::uint32_t, 3> kThreads = {1, 4, 8};
  std::array<double, 3> single_tokens_per_sec{};
  std::array<double, 3> batch_tokens_per_sec{};

  double ratio(std::size_t i) const {
    return batch_tokens_per_sec[i] / single_tokens_per_sec[i];
  }
};

ConcurrentBatchRates measure_concurrent_batch(std::uint32_t width,
                                              double min_seconds) {
  constexpr int kRounds = 3;
  constexpr std::uint32_t kBatch = 32;
  constexpr std::uint64_t kTokensPerThread = 20000;
  const Network topo = make_bitonic(width);
  ConcurrentBatchRates r;
  (void)min_seconds;  // thread setup dominates; fixed-ops rounds, max rate
  for (std::size_t i = 0; i < r.kThreads.size(); ++i) {
    const std::uint32_t threads = r.kThreads[i];
    for (int round = 0; round < kRounds; ++round) {
      {
        ConcurrentNetwork net(topo);
        r.single_tokens_per_sec[i] = std::max(
            r.single_tokens_per_sec[i],
            run_throughput(threads, kTokensPerThread, [&](std::uint32_t t) {
              return net.increment(t % topo.fan_in());
            }));
      }
      {
        ConcurrentNetwork net(topo);
        r.batch_tokens_per_sec[i] = std::max(
            r.batch_tokens_per_sec[i],
            run_batch_throughput(threads, kTokensPerThread, kBatch,
                                 [&](std::uint32_t t, std::uint64_t* out,
                                     std::uint32_t k) {
                                   net.increment_batch(t % topo.fan_in(), k,
                                                       out);
                                 }));
      }
    }
  }
  return r;
}

std::string json_concurrent_batch(std::uint32_t width,
                                  const ConcurrentBatchRates& r) {
  std::ostringstream os;
  os << std::setprecision(6);
  os << "  \"concurrent_batch_bitonic" << width << "\": {\n";
  for (std::size_t i = 0; i < r.kThreads.size(); ++i) {
    os << "    \"threads_" << r.kThreads[i] << "\": {\n"
       << "      \"single_tokens_per_sec\": " << r.single_tokens_per_sec[i]
       << ",\n"
       << "      \"batch_tokens_per_sec\": " << r.batch_tokens_per_sec[i]
       << ",\n"
       << "      \"batch_over_single\": " << r.ratio(i) << "\n"
       << "    }" << (i + 1 < r.kThreads.size() ? "," : "") << "\n";
  }
  os << "  }";
  return os.str();
}

/// The service shard's kernel: the single-writer BatchTraversal against
/// ConcurrentNetwork::increment_batch, both on one thread, at batch sizes
/// 1 and 32 (the closed-loop service's observed mean batch). The shard
/// side is fed the way a classic shard's worker feeds it: identity feed,
/// persistent cursor, one call per batch. ConcurrentNetwork takes one
/// input wire per call, so it gets each batch whole on a wire cycled
/// batch by batch. Plain adds and merged sub-batches (a 32-token batch
/// spread over B(8)'s 8 entries reaches all 24 balancers and 8 sinks: 32
/// plain adds, against 95 atomic RMWs) versus the shared-memory
/// traversal; the shard_over_concurrent ratios are tracked. Alternating
/// rounds, max of rates — same noise defense as measure_traversal.
struct ShardBatchRates {
  static constexpr std::array<std::uint32_t, 2> kBatches = {1, 32};
  std::array<double, 2> concurrent_tokens_per_sec{};
  std::array<double, 2> shard_tokens_per_sec{};

  double ratio(std::size_t i) const {
    return shard_tokens_per_sec[i] / concurrent_tokens_per_sec[i];
  }
};

ShardBatchRates measure_shard_batch(double min_seconds) {
  constexpr int kRounds = 4;
  const Network topo = make_bitonic(8);
  const CompiledNetwork compiled(topo);
  ShardBatchRates r;
  const double round_seconds = min_seconds / kRounds;
  for (std::size_t i = 0; i < r.kBatches.size(); ++i) {
    const std::uint32_t k = r.kBatches[i];
    const std::uint32_t calls = kTraversalBatch / k;
    std::vector<Value> out(k);
    ConcurrentNetwork concurrent(topo);
    BatchTraversal shard(compiled);
    std::uint32_t source = 0;
    const std::vector<std::uint32_t> feed = {0, 1, 2, 3, 4, 5, 6, 7};
    std::uint64_t cursor = 0;
    const auto run = [&](auto&& increment) {
      return cn::bench::measure_rate(
          std::uint64_t{calls} * k, round_seconds, [&] {
            for (std::uint32_t c = 0; c < calls; ++c) {
              increment();
              cn::bench::do_not_optimize(out.data());
            }
          });
    };
    for (int round = 0; round < kRounds; ++round) {
      r.concurrent_tokens_per_sec[i] =
          std::max(r.concurrent_tokens_per_sec[i], run([&] {
                     concurrent.increment_batch(source, k, out.data());
                     source = (source + 1) & 7u;
                   }));
      r.shard_tokens_per_sec[i] =
          std::max(r.shard_tokens_per_sec[i], run([&] {
                     shard.increment_batch(feed, cursor, k, out.data());
                     cursor = (cursor + k) & 7u;
                   }));
    }
  }
  return r;
}

std::string json_shard_batch(const ShardBatchRates& r) {
  std::ostringstream os;
  os << std::setprecision(6);
  os << "  \"shard_batch_bitonic8\": {\n";
  for (std::size_t i = 0; i < r.kBatches.size(); ++i) {
    os << "    \"k_" << r.kBatches[i] << "\": {\n"
       << "      \"concurrent_ns_per_token\": "
       << 1e9 / r.concurrent_tokens_per_sec[i] << ",\n"
       << "      \"shard_ns_per_token\": " << 1e9 / r.shard_tokens_per_sec[i]
       << ",\n"
       << "      \"shard_over_concurrent\": " << r.ratio(i) << "\n"
       << "    }" << (i + 1 < r.kBatches.size() ? "," : "") << "\n";
  }
  os << "  }";
  return os.str();
}

/// Accepted-request throughput of the sharded counting service under 8
/// closed-loop clients: classic one-request submit/wait cycles vs
/// submit_batch(16) on the batched ingress (one ticket-range draw, at
/// most min(16, shards) queue cells, and one park/wake cycle per batch),
/// plus the batched mode again with recording on (the lock-free event
/// lanes feeding a streaming checker). The two _over_ ratios are the
/// tracked metrics; absolute rates swing with the host. The recorded
/// leg's whole stop() (worker joins, the final fence's merge of the record
/// lanes, the checker it feeds) is timed apart, per record it emitted, and
/// is not gated.
struct ServiceIngressRates {
  static constexpr std::uint32_t kClients = 8;
  static constexpr std::uint32_t kClientBatch = 16;
  double single_req_per_sec = 0.0;
  double batched_req_per_sec = 0.0;
  double recorded_batched_req_per_sec = 0.0;
  double recorded_stop_ns_per_record = 0.0;

  double batched_over_single() const {
    return batched_req_per_sec / single_req_per_sec;
  }
  double recorded_over_unrecorded() const {
    return recorded_batched_req_per_sec / batched_req_per_sec;
  }
};

/// One closed-loop run: completed requests per second, over a window
/// that covers submit-to-join only (service start/stop and the sink
/// finish sit outside it), and, when recording, stop()'s time per record
/// it emitted.
struct IngressRound {
  double req_per_sec = 0.0;
  double stop_ns_per_record = 0.0;
};

IngressRound run_service_ingress_round(const Network& topo,
                                       std::uint32_t clients,
                                       std::uint32_t batch,
                                       std::uint64_t ops_per_client,
                                       bool record) {
  service::ServiceConfig cfg;
  cfg.shards = 2;
  cfg.max_batch = 64;
  cfg.queue_capacity = 4096;
  cfg.net = &topo;
  cfg.record = record;
  cfg.seed = 7;
  StreamingConsistency sink;
  service::CountingService svc(cfg, record ? &sink : nullptr);
  svc.start();
  const service::SubmitPolicy policy;  // default spin/yield/park gears
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> completed{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      service::PolicyClient pc(svc, policy, c, /*seed=*/c + 1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t done = 0;
      if (batch <= 1) {
        for (std::uint64_t i = 0; i < ops_per_client; ++i) {
          done += pc.submit(i).status == service::SubmitStatus::kCompleted;
        }
      } else {
        for (std::uint64_t i = 0; i < ops_per_client; i += batch) {
          done += pc.submit_batch(i, batch).completed;
        }
      }
      completed.fetch_add(done, std::memory_order_relaxed);
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  svc.stop();
  const auto t2 = std::chrono::steady_clock::now();
  IngressRound round;
  round.req_per_sec =
      static_cast<double>(completed.load(std::memory_order_relaxed)) /
      std::chrono::duration<double>(t1 - t0).count();
  if (record) {
    round.stop_ns_per_record =
        std::chrono::duration<double, std::nano>(t2 - t1).count() /
        static_cast<double>(std::max<std::size_t>(sink.total(), 1));
    sink.finish();
  }
  return round;
}

ServiceIngressRates measure_service_ingress(double min_seconds) {
  constexpr int kRounds = 5;
  constexpr std::uint64_t kOpsPerClient = 4000;  // 32k requests per round
  (void)min_seconds;  // service + thread setup dominates; fixed-ops rounds
  const Network topo = make_bitonic(8);
  ServiceIngressRates r;
  for (int round = 0; round < kRounds; ++round) {
    r.single_req_per_sec = std::max(
        r.single_req_per_sec,
        run_service_ingress_round(topo, r.kClients, 1, kOpsPerClient,
                                  /*record=*/false)
            .req_per_sec);
    r.batched_req_per_sec = std::max(
        r.batched_req_per_sec,
        run_service_ingress_round(topo, r.kClients, r.kClientBatch,
                                  kOpsPerClient, /*record=*/false)
            .req_per_sec);
    const IngressRound recorded =
        run_service_ingress_round(topo, r.kClients, r.kClientBatch,
                                  kOpsPerClient, /*record=*/true);
    r.recorded_batched_req_per_sec =
        std::max(r.recorded_batched_req_per_sec, recorded.req_per_sec);
    r.recorded_stop_ns_per_record =
        round == 0 ? recorded.stop_ns_per_record
                   : std::min(r.recorded_stop_ns_per_record,
                              recorded.stop_ns_per_record);
  }
  return r;
}

std::string json_service_ingress(const ServiceIngressRates& r) {
  std::ostringstream os;
  os << std::setprecision(6);
  os << "  \"service_ingress_bitonic8\": {\n"
     << "    \"clients\": " << r.kClients << ",\n"
     << "    \"client_batch\": " << r.kClientBatch << ",\n"
     << "    \"single_req_per_sec\": " << r.single_req_per_sec << ",\n"
     << "    \"batched_req_per_sec\": " << r.batched_req_per_sec << ",\n"
     << "    \"recorded_batched_req_per_sec\": "
     << r.recorded_batched_req_per_sec << ",\n"
     << "    \"batched_over_single\": " << r.batched_over_single() << ",\n"
     << "    \"recorded_over_unrecorded\": " << r.recorded_over_unrecorded()
     << ",\n"
     << "    \"recorded_stop_ns_per_record\": "
     << r.recorded_stop_ns_per_record << "\n"
     << "  }";
  return os.str();
}

/// Start-up cost of the service at two queue capacities: construct,
/// start() and stop() of an idle 2-shard B(8) service. The queues are
/// zeroed rings that construction does not write, so no part of the
/// cycle walks the cells; what still grows with the capacity is the
/// allocator mapping and unmapping the larger ring. Alternating rounds,
/// min of times. Absolute times only: not gated by --check.
struct ServiceStartRates {
  static constexpr std::array<std::uint32_t, 2> kCapacities{4096, 65536};
  std::array<double, 2> us_per_cycle{};
};

ServiceStartRates measure_service_start(double min_seconds) {
  constexpr int kRounds = 4;
  const Network topo = make_bitonic(8);
  ServiceStartRates r;
  const double round_seconds =
      min_seconds / (kRounds * r.kCapacities.size());
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < r.kCapacities.size(); ++i) {
      service::ServiceConfig cfg;
      cfg.shards = 2;
      cfg.queue_capacity = r.kCapacities[i];
      cfg.net = &topo;
      cfg.seed = 7;
      const double us =
          1e6 / cn::bench::measure_rate(1, round_seconds, [&] {
            service::CountingService svc(cfg);
            svc.start();
            svc.stop();
          });
      r.us_per_cycle[i] = round == 0 ? us : std::min(r.us_per_cycle[i], us);
    }
  }
  return r;
}

std::string json_service_start(const ServiceStartRates& r) {
  std::ostringstream os;
  os << std::setprecision(6);
  os << "  \"service_start\": {\n"
     << "    \"shards\": 2,\n";
  for (std::size_t i = 0; i < r.kCapacities.size(); ++i) {
    os << "    \"capacity_" << r.kCapacities[i] << "\": {\n"
       << "      \"us_per_cycle\": " << r.us_per_cycle[i] << "\n"
       << "    }" << (i + 1 < r.kCapacities.size() ? "," : "") << "\n";
  }
  os << "  }";
  return os.str();
}

struct StreamingSweepRates {
  double collect_per_sec = 0.0;
  double stream_per_sec = 0.0;

  double ratio() const { return stream_per_sec / collect_per_sec; }
};

/// Single-threaded 8-trial sweeps of 4096-token trials, materialized
/// traces vs the streaming sink path (keep_trace=false), through either
/// the scalar event loop or the level-synchronous wave interpreter. In
/// wave mode the stream side emits on_records batches through the
/// deferred emission window instead of one virtual call per token.
/// Trials are sized so the ratio measures the trace pipeline — collect
/// + batch analyze vs incremental checker, a gap that only opens once
/// the trace outgrows the analyzer's cache-resident regime — rather
/// than per-trial setup.
StreamingSweepRates measure_streaming_sweep(double min_seconds,
                                            bool wave_exec) {
  constexpr int kRounds = 4;
  const Network topo = make_bitonic(8);
  engine::SweepSpec sweep;
  sweep.base.net = &topo;
  sweep.base.processes = 8;
  sweep.base.ops_per_process = 512;
  sweep.base.c_max = 3.0;
  sweep.base.wave_exec = wave_exec;
  sweep.trials = 8;
  sweep.threads = 1;
  StreamingSweepRates r;
  const double round_seconds = min_seconds / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    sweep.base.keep_trace = true;
    r.collect_per_sec = std::max(
        r.collect_per_sec,
        cn::bench::measure_rate(sweep.trials, round_seconds, [&] {
          cn::bench::do_not_optimize(engine::sweep_stats(sweep));
        }));
    sweep.base.keep_trace = false;
    r.stream_per_sec = std::max(
        r.stream_per_sec,
        cn::bench::measure_rate(sweep.trials, round_seconds, [&] {
          cn::bench::do_not_optimize(engine::sweep_stats(sweep));
        }));
  }
  return r;
}

/// A sink that only counts: the interpreter's emission path runs in
/// full, without the cost of storing or checking records.
class CountingSink final : public TraceSink {
 public:
  void on_record(const TokenRecord&) override { ++records_; }
  void on_records(std::span<const TokenRecord> batch) override {
    records_ += batch.size();
  }
  std::uint64_t records() const noexcept { return records_; }

 private:
  std::uint64_t records_ = 0;
};

struct InterpreterRates {
  std::uint64_t steps_per_trial = 0;
  double scalar_steps_per_sec = 0.0;
  double wave_steps_per_sec = 0.0;
  double workload_tokens_per_sec = 0.0;
  double validate_tokens_per_sec = 0.0;
};

/// The whole interpreter, validate() included, at the sweep_wave_stream
/// trial shape: B(8), 8 processes x 512 tokens, c_max 3, streaming into
/// a counting sink. simulate_stream (the scalar body) and
/// simulate_wave_stream (the wave body) interpret the same pregenerated
/// trials with one reused arena. The workload layer is timed on its own:
/// generate_workload of the same trials plus the schedule's destruction;
/// so is validate() on the same trials, the interpreters' first pass.
/// Alternating rounds, max of rates — same noise defense as
/// measure_traversal. Absolute rates only: not gated by --check.
InterpreterRates measure_interpreter(double min_seconds) {
  constexpr int kRounds = 4;
  constexpr std::uint64_t kTrials = 4;
  const Network topo = make_bitonic(8);
  WorkloadSpec wl;
  wl.processes = 8;
  wl.tokens_per_process = 512;
  wl.c_max = 3.0;
  wl.local_delay_max = 2.0;  // the RunSpec default
  std::vector<TimedExecution> trials;
  for (std::uint64_t seed = 1; seed <= kTrials; ++seed) {
    Xoshiro256 rng(seed);
    trials.push_back(generate_workload(topo, wl, rng));
  }
  InterpreterRates r;
  const std::uint64_t tokens_per_trial = trials[0].plans.size();
  r.steps_per_trial = tokens_per_trial * (topo.depth() + 1);
  SimArena arena;
  CountingSink sink;
  const double round_seconds = min_seconds / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    r.scalar_steps_per_sec = std::max(
        r.scalar_steps_per_sec,
        cn::bench::measure_rate(kTrials * r.steps_per_trial, round_seconds,
                                [&] {
                                  for (const TimedExecution& exec : trials) {
                                    cn::bench::do_not_optimize(
                                        simulate_stream(exec, arena, sink));
                                  }
                                }));
    r.wave_steps_per_sec = std::max(
        r.wave_steps_per_sec,
        cn::bench::measure_rate(kTrials * r.steps_per_trial, round_seconds,
                                [&] {
                                  for (const TimedExecution& exec : trials) {
                                    cn::bench::do_not_optimize(
                                        simulate_wave_stream(exec, arena,
                                                             sink));
                                  }
                                }));
    r.workload_tokens_per_sec = std::max(
        r.workload_tokens_per_sec,
        cn::bench::measure_rate(kTrials * tokens_per_trial, round_seconds,
                                [&] {
                                  for (std::uint64_t seed = 1;
                                       seed <= kTrials; ++seed) {
                                    Xoshiro256 rng(seed);
                                    cn::bench::do_not_optimize(
                                        generate_workload(topo, wl, rng));
                                  }
                                }));
    r.validate_tokens_per_sec = std::max(
        r.validate_tokens_per_sec,
        cn::bench::measure_rate(kTrials * tokens_per_trial, round_seconds,
                                [&] {
                                  for (const TimedExecution& exec : trials) {
                                    cn::bench::do_not_optimize(validate(exec));
                                  }
                                }));
  }
  cn::bench::do_not_optimize(sink.records());
  return r;
}

std::string json_interpreter(const InterpreterRates& r) {
  std::ostringstream os;
  os << std::setprecision(6);
  os << "  \"interpreter_bitonic8\": {\n"
     << "    \"steps_per_trial\": " << r.steps_per_trial << ",\n"
     << "    \"scalar_stream\": {\n"
     << "      \"steps_per_sec\": " << r.scalar_steps_per_sec << ",\n"
     << "      \"ns_per_step\": " << 1e9 / r.scalar_steps_per_sec << "\n"
     << "    },\n"
     << "    \"wave_stream\": {\n"
     << "      \"steps_per_sec\": " << r.wave_steps_per_sec << ",\n"
     << "      \"ns_per_step\": " << 1e9 / r.wave_steps_per_sec << "\n"
     << "    },\n"
     << "    \"workload\": {\n"
     << "      \"tokens_per_sec\": " << r.workload_tokens_per_sec << ",\n"
     << "      \"ns_per_token\": " << 1e9 / r.workload_tokens_per_sec << "\n"
     << "    },\n"
     << "    \"validate\": {\n"
     << "      \"tokens_per_sec\": " << r.validate_tokens_per_sec << ",\n"
     << "      \"ns_per_token\": " << 1e9 / r.validate_tokens_per_sec << "\n"
     << "    }\n"
     << "  }";
  return os.str();
}

std::string json_traversal(std::uint32_t width, const TraversalRates& r) {
  std::ostringstream os;
  os << std::setprecision(6);
  os << "  \"traversal_bitonic" << width << "\": {\n"
     << "    \"hops_per_token\": " << r.hops << ",\n"
     << "    \"reference_graph_walk\": {\n"
     << "      \"tokens_per_sec\": " << r.ref_tokens_per_sec << ",\n"
     << "      \"ns_per_token\": " << 1e9 / r.ref_tokens_per_sec << ",\n"
     << "      \"steps_per_sec\": " << r.ref_steps_per_sec() << "\n"
     << "    },\n"
     << "    \"compiled_fast_path\": {\n"
     << "      \"tokens_per_sec\": " << r.fast_tokens_per_sec << ",\n"
     << "      \"ns_per_token\": " << 1e9 / r.fast_tokens_per_sec << ",\n"
     << "      \"steps_per_sec\": " << r.fast_steps_per_sec() << "\n"
     << "    },\n"
     << "    \"steps_per_sec_speedup\": " << r.speedup() << "\n"
     << "  }";
  return os.str();
}

std::string json_wave(std::uint32_t width, const TraversalRates& t) {
  std::ostringstream os;
  os << std::setprecision(6);
  os << "  \"wave_bitonic" << width << "\": {\n"
     << "    \"hops_per_token\": " << t.hops << ",\n"
     << "    \"tokens_per_sec\": " << t.wave_tokens_per_sec << ",\n"
     << "    \"ns_per_token\": " << 1e9 / t.wave_tokens_per_sec << ",\n"
     << "    \"steps_per_sec\": " << t.wave_steps_per_sec() << ",\n"
     << "    \"speedup_vs_compiled\": " << t.wave_speedup() << "\n"
     << "  }";
  return os.str();
}

struct ConstructionRates {
  double wave_runs_per_sec = 0.0;
  double split_runs_per_sec = 0.0;
};

/// The adversary's set-up, which no other section times: the three-wave
/// construction at split level 1 plus its simulation and analysis on
/// bitonic B(32), given its split analysis, and the split analysis of
/// periodic P(32) itself. Alternating rounds, max of rates — same noise
/// defense as measure_traversal. Absolute rates only: not gated by
/// --check.
ConstructionRates measure_construction(double min_seconds) {
  constexpr int kRounds = 4;
  const Network bitonic = make_bitonic(32);
  const SplitAnalysis split(bitonic);
  const Network periodic = make_periodic(32);
  ConstructionRates r;
  const double round_seconds = min_seconds / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    r.wave_runs_per_sec = std::max(
        r.wave_runs_per_sec, cn::bench::measure_rate(1, round_seconds, [&] {
          cn::bench::do_not_optimize(
              run_wave_execution(bitonic, split, {.ell = 1}));
        }));
    r.split_runs_per_sec = std::max(
        r.split_runs_per_sec, cn::bench::measure_rate(1, round_seconds, [&] {
          cn::bench::do_not_optimize(SplitAnalysis(periodic));
        }));
  }
  return r;
}

std::string json_construction(const ConstructionRates& r) {
  std::ostringstream os;
  os << std::setprecision(6);
  os << "  \"construction\": {\n"
     << "    \"wave_execution_bitonic32\": {\n"
     << "      \"runs_per_sec\": " << r.wave_runs_per_sec << ",\n"
     << "      \"us_per_run\": " << 1e6 / r.wave_runs_per_sec << "\n"
     << "    },\n"
     << "    \"split_analysis_periodic32\": {\n"
     << "      \"runs_per_sec\": " << r.split_runs_per_sec << ",\n"
     << "      \"us_per_run\": " << 1e6 / r.split_runs_per_sec << "\n"
     << "    }\n"
     << "  }";
  return os.str();
}

// ---------------------------------------------------------------------------
// --check: ratio-metric regression gate against the committed baseline.
// ---------------------------------------------------------------------------

/// Flattens the nested JSON bench_micro itself emits into dotted key
/// paths ("section.key", "section.sub.key") -> value for every numeric
/// field. Not a general JSON parser — just enough structure awareness for
/// our own output format.
std::map<std::string, double> parse_metrics(const std::string& text) {
  std::map<std::string, double> out;
  std::vector<std::string> stack;  // enclosing object names, outermost first
  const auto path_of = [&](const std::string& key) {
    std::string path;
    for (const std::string& s : stack) path += s + ".";
    return path + key;
  };
  std::size_t i = 0;
  while (i < text.size()) {
    if (text[i] != '"') {
      if (text[i] == '}' && !stack.empty()) stack.pop_back();
      ++i;
      continue;
    }
    const std::size_t end = text.find('"', i + 1);
    if (end == std::string::npos) break;
    const std::string key = text.substr(i + 1, end - i - 1);
    i = end + 1;
    while (i < text.size() && (text[i] == ' ' || text[i] == ':')) ++i;
    if (i >= text.size()) break;
    if (text[i] == '{') {
      stack.push_back(key);
      ++i;
    } else if (text[i] == '"') {  // string value: skip it
      i = text.find('"', i + 1);
      if (i == std::string::npos) break;
      ++i;
    } else {
      char* parsed_end = nullptr;
      const double v = std::strtod(text.c_str() + i, &parsed_end);
      if (parsed_end != text.c_str() + i) {
        out[path_of(key)] = v;
        i = static_cast<std::size_t>(parsed_end - text.c_str());
      } else {
        ++i;
      }
    }
  }
  return out;
}

/// Only the machine-independent RATIOS are gated; absolute rates swing
/// with the runner's hardware and load.
bool is_ratio_metric(const std::string& key) {
  return key.find("speedup") != std::string::npos ||
         key.find("_over_") != std::string::npos;
}

/// Returns 0 when every key path of the baseline is in `current` and
/// every ratio metric of `current` is within `tolerance` (a fraction of
/// the committed value, e.g. 0.15 = may drop 15%) below its committed
/// value or better; prints a diff and returns 1 otherwise.
int check_against_baseline(const std::string& current,
                           const std::string& baseline_path,
                           double tolerance) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::cerr << "bench_micro --check: cannot read baseline "
              << baseline_path << "\n";
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::map<std::string, double> base = parse_metrics(buf.str());
  const std::map<std::string, double> cur = parse_metrics(current);
  bool failed = false;
  std::size_t checked = 0;
  for (const auto& [key, base_value] : base) {
    const bool ratio = is_ratio_metric(key);
    if (ratio) ++checked;
    const auto it = cur.find(key);
    if (it == cur.end()) {
      std::cerr << "bench_micro --check: FAIL " << key << ": in baseline ("
                << base_value << ") but missing from this run\n";
      failed = true;
      continue;
    }
    if (!ratio) continue;
    const double floor = base_value * (1.0 - tolerance);
    if (it->second < floor) {
      std::cerr << "bench_micro --check: FAIL " << key << ": " << it->second
                << " < " << floor << " (baseline " << base_value << " - "
                << tolerance * 100.0 << "%)\n";
      failed = true;
    } else {
      std::cout << "bench_micro --check: ok " << key << ": " << it->second
                << " vs baseline " << base_value << "\n";
    }
  }
  if (checked == 0) {
    std::cerr << "bench_micro --check: baseline " << baseline_path
              << " has no ratio metrics\n";
    return 1;
  }
  if (failed) {
    std::cerr << "bench_micro --check: regression against " << baseline_path
              << " (threshold: " << tolerance * 100.0
              << "% below committed ratio)\n";
    return 1;
  }
  std::cout << "bench_micro --check: all " << checked
            << " ratio metrics within tolerance of " << baseline_path << "\n";
  return 0;
}

int run(const CliArgs& args) {
#ifndef NDEBUG
  std::cerr << "bench_micro: WARNING: this is a debug build; the "
               "tracked baseline must come from -O2 (Release).\n";
#endif
  const double min_seconds = args.get_double("min-seconds", 0.5);
  const double tolerance = args.get_double("check_tolerance", 0.15);
  if (args.has("check") && (tolerance < 0.0 || tolerance >= 1.0)) {
    std::cerr << "bench_micro --check: check_tolerance must be a "
                 "fraction in [0, 1), got "
              << tolerance << "\n";
    return 1;
  }

  const TraversalRates t8 = measure_traversal(8, min_seconds);
  const TraversalRates t32 = measure_traversal(32, min_seconds);
  const TraversalRates t64 = measure_traversal(64, min_seconds);
  const InterpreterRates interp = measure_interpreter(min_seconds);
  const TrialRates trials = measure_trials(min_seconds);
  const AnalyzerRates an = measure_analyzer(min_seconds);
  const StreamingSweepRates ss =
      measure_streaming_sweep(min_seconds, /*wave_exec=*/false);
  const StreamingSweepRates ssw =
      measure_streaming_sweep(min_seconds, /*wave_exec=*/true);
  const ConcurrentBatchRates cb8 = measure_concurrent_batch(8, min_seconds);
  const ConcurrentBatchRates cb32 = measure_concurrent_batch(32, min_seconds);
  const ShardBatchRates sb = measure_shard_batch(min_seconds);
  const ServiceIngressRates si = measure_service_ingress(min_seconds);
  const ServiceStartRates st = measure_service_start(min_seconds);
  const ConstructionRates cr = measure_construction(min_seconds);

  std::ostringstream os;
  os << std::setprecision(6);
  os << "{\n"
     << "  \"bench\": \"bench_micro\",\n"
#ifdef NDEBUG
     << "  \"build\": \"release\",\n"
#else
     << "  \"build\": \"debug\",\n"
#endif
     << json_traversal(8, t8) << ",\n"
     << json_traversal(32, t32) << ",\n"
     << json_traversal(64, t64) << ",\n"
     << json_wave(8, t8) << ",\n"
     << json_wave(32, t32) << ",\n"
     << json_wave(64, t64) << ",\n"
     << json_interpreter(interp) << ",\n"
     << "  \"engine_bitonic8\": {\n"
     << "    \"trials_per_sec_fresh_context\": " << trials.fresh_per_sec
     << ",\n"
     << "    \"trials_per_sec_reused_arena\": " << trials.arena_per_sec
     << ",\n"
     << "    \"trials_per_sec_speedup\": " << trials.speedup() << "\n"
     << "  },\n"
     << "  \"analyzer_bitonic8\": {\n"
     << "    \"trace_tokens\": " << an.tokens << ",\n"
     << "    \"batch_tokens_per_sec\": " << an.batch_tokens_per_sec << ",\n"
     << "    \"streaming_tokens_per_sec\": " << an.stream_tokens_per_sec
     << ",\n"
     << "    \"streaming_over_batch\": " << an.ratio() << "\n"
     << "  },\n"
     << "  \"streaming_sweep_bitonic8\": {\n"
     << "    \"trials_per_sec_collect\": " << ss.collect_per_sec << ",\n"
     << "    \"trials_per_sec_stream\": " << ss.stream_per_sec << ",\n"
     << "    \"stream_over_collect\": " << ss.ratio() << "\n"
     << "  },\n"
     << "  \"streaming_sweep_bitonic8_wave\": {\n"
     << "    \"trials_per_sec_collect\": " << ssw.collect_per_sec << ",\n"
     << "    \"trials_per_sec_stream\": " << ssw.stream_per_sec << ",\n"
     << "    \"stream_over_collect\": " << ssw.ratio() << "\n"
     << "  },\n"
     << json_concurrent_batch(8, cb8) << ",\n"
     << json_concurrent_batch(32, cb32) << ",\n"
     << json_shard_batch(sb) << ",\n"
     << json_service_ingress(si) << ",\n"
     << json_service_start(st) << ",\n"
     << json_construction(cr) << "\n"
     << "}\n";

  const std::string report = os.str();
  if (args.has("out")) {
    const std::string out_path = args.get("out", "");
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "bench_micro: cannot write " << out_path << "\n";
      return 1;
    }
    out << report;
  } else {
    std::cout << report;
  }

  if (!args.has("check")) return 0;
  return check_against_baseline(
      report, args.get("baseline", "BENCH_micro.json"), tolerance);
}

}  // namespace

int main(int argc, char** argv) { return run(cn::CliArgs(argc, argv)); }
