// E12 — Counting-as-a-service: the sharded service under closed-loop
// saturation and open-loop (Poisson / bursty) load.
//
//   bench_service [--width 8] [--clients 8] [--ops 2000] [--shards 1,2,4]
//                 [--batch 32] [--seed 1] [--smoke] [--json] [--no-faults]
//                 [--ingress [--client-batch 16] [--ingress-shards N]]
//
// Four sections:
//   saturation   closed-loop throughput + latency percentiles for the
//                service at each shard count vs the baseline counters
//                (fetch&inc, MCS, combining tree, diffracting tree) and
//                the raw concurrent network (single-token and batched) —
//                every row driven through the engine registry.
//   open_loop    an open-system load generator offering Poisson and
//                bursty arrivals at a fraction of the measured
//                saturation rate. Latency is measured from the SCHEDULED
//                arrival time (coordinated-omission-free): queue wait
//                counts, a stalled service cannot hide behind a stalled
//                generator.
//   consistency  a recorded service run with the streaming analyzers
//                attached live: F_nl / F_nsc as measured, and the
//                quiescent counting check (Lemma 3.1 says the residue
//                router preserves gap-free counting when every accepted
//                ticket completes - counting_violation must be 0).
//   degradation  the same service under injected worker stalls and
//                abandons (src/fault plans): drop counts, latency
//                inflation, and the counting damage the drops cause.
//
//   --elastic    elastic-width mode (E14): a diurnal open-loop generator
//                ramps the offered rate through two full low/high cycles
//                against an elastic service (Props 5.6-5.10 live
//                resharding). The adaptive controller splits under queue
//                pressure and merges when drained; a forced resize at
//                each phase boundary is the fallback that guarantees the
//                run walks through >= 2 splits and >= 2 merges either
//                way. Every epoch boundary takes the Lemma 3.1 residue
//                audit at its quiescence fence and reports measured
//                F_nl / F_nsc against the Cor 5.12/5.13 bounds for its
//                split level; the gate is audit_exact && gap_free across
//                EVERY epoch plus the transition counts. --elastic-ms
//                bounds the run; --json emits the gated report.
//
//   --ingress    batched-ingress mode (E15): closed-loop saturation with
//                every request riding submit_batch (one ticket-range
//                draw, at most min(batch, shards) queue cells, one
//                park/wake cycle per batch) against a RECORDED service —
//                the streaming consistency checker and the degradation
//                accumulator attached live through a tee. A classic
//                single-submit leg runs first as the throughput
//                reference. The run is fault-free by construction, so
//                the gate demands perfection: Lemma 3.1 residue audit
//                exact + gap-free and zero counting violations —
//                batching changes the schedule, never the count. --json
//                emits the gated report; exits nonzero when the gate
//                fails.
//
//   --soak       long-running self-healing mode (E13): an open-loop
//                generator cycles phases — steady Poisson, diurnal
//                sine-modulated Poisson, saturation bursts — against a
//                supervised service with admission watermarks while a
//                seed-driven ChaosPlan crashes and stalls workers
//                mid-run. The streaming consistency + degradation
//                analyzers are attached live, the supervisor respawns
//                crashed workers, health is polled periodically, and at
//                quiescence the Lemma 3.1 residue audit must account
//                every hole exactly. --soak-ms bounds the run (CI runs
//                ~8 s); --json emits the gated report.
//
// --smoke shrinks every section for CI; --json emits one machine-checked
// object with all sections.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "fault/chaos.hpp"
#include "service/client.hpp"
#include "service/histogram.hpp"
#include "service/service.hpp"
#include "trace/streaming.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace {

using namespace cn;

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Busy-waits (yielding) until the steady clock reaches `deadline_ns`.
void wait_until_ns(std::uint64_t deadline_ns) {
  while (now_ns() < deadline_ns) std::this_thread::yield();
}

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

struct LatencyRow {
  double ops_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

/// Percentiles of (t_out - t_in) over a recorded engine trace, via the
/// same histogram the service uses.
LatencyRow trace_latency(const engine::RunResult& res) {
  LatencyRow row;
  row.ops_per_sec = res.metric("ops_per_sec");
  service::LatencyHistogram h;
  for (const TokenRecord& rec : res.trace) {
    const double sec = rec.t_out - rec.t_in;
    h.record(sec > 0 ? static_cast<std::uint64_t>(sec * 1e9) : 0);
  }
  row.p50_us = us(h.p50());
  row.p99_us = us(h.p99());
  row.p999_us = us(h.p999());
  return row;
}

struct OpenLoopResult {
  double offered_per_sec = 0.0;
  double achieved_per_sec = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  LatencyRow lat;
};

/// Open-loop run: one generator thread submits `total_ops` fire-and-
/// forget requests on a precomputed arrival schedule (Poisson:
/// exponential inter-arrival; bursty: back-to-back bursts of
/// `burst_size` every burst_size/rate seconds). A full queue rejects
/// the arrival — open-loop clients never retry or block.
OpenLoopResult run_open_loop(const Network& net, std::uint32_t shards,
                             std::uint32_t batch, double rate_per_sec,
                             std::uint64_t total_ops, std::uint32_t burst_size,
                             std::uint64_t seed) {
  service::ServiceConfig cfg;
  cfg.shards = shards;
  cfg.max_batch = batch;
  cfg.net = &net;
  cfg.seed = seed;
  service::CountingService svc(cfg);
  svc.start();

  Xoshiro256 rng(seed ^ 0xa5a5a5a5ULL);
  const double mean_gap_ns = 1e9 / rate_per_sec;
  const std::uint64_t t0 = now_ns() + 1000000;  // 1 ms of lead time
  double next_ns = 0.0;
  std::uint64_t rejected = 0;
  for (std::uint64_t k = 0; k < total_ops; ++k) {
    if (burst_size <= 1) {
      next_ns += -std::log(1.0 - rng.unit()) * mean_gap_ns;
    } else if (k % burst_size == 0 && k > 0) {
      next_ns += mean_gap_ns * burst_size;  // whole burst arrives at once
    }
    const std::uint64_t scheduled = t0 + static_cast<std::uint64_t>(next_ns);
    wait_until_ns(scheduled);
    // Latency is anchored at the SCHEDULED arrival: if the generator
    // fell behind (overload), the wait it could not perform still counts
    // against the service, not in its favor.
    if (!svc.try_submit(0, scheduled)) ++rejected;
  }
  const std::uint64_t gen_elapsed = now_ns() - t0;
  svc.stop();

  const service::ServiceStats& st = svc.stats();
  OpenLoopResult out;
  out.offered_per_sec = rate_per_sec;
  out.submitted = st.submitted;
  out.rejected = rejected;
  out.achieved_per_sec =
      gen_elapsed > 0
          ? static_cast<double>(st.completed) * 1e9 / gen_elapsed
          : 0.0;
  out.lat.ops_per_sec = out.achieved_per_sec;
  out.lat.p50_us = us(st.latency.p50());
  out.lat.p99_us = us(st.latency.p99());
  out.lat.p999_us = us(st.latency.p999());
  return out;
}

// --- ingress mode (E15): batched submission lanes, recorded + gated ----

struct IngressResult {
  service::ServiceStats stats;
  service::ResidueAudit audit;
  ConsistencyReport report;
  fault::Degradation degradation;
  double single_per_sec = 0.0;   ///< Classic one-request closed loop.
  double batched_per_sec = 0.0;  ///< submit_batch closed loop (recorded).
  std::uint64_t client_completed = 0;
  std::uint64_t client_rejected = 0;
  bool gate_ok = false;  ///< audit exact + gap-free, zero violations.
};

/// Closed-loop saturation through the batched ingress: `clients` policy
/// clients each submit ops_per_client requests as submit_batch bursts of
/// `client_batch` against a recorded service, analyzers attached live.
/// An unrecorded classic-submit leg runs first as the reference rate.
IngressResult run_ingress(const Network& net, std::uint32_t shards,
                          std::uint32_t batch, std::uint32_t clients,
                          std::uint32_t client_batch,
                          std::uint64_t ops_per_client, std::uint64_t seed) {
  IngressResult out;
  const service::SubmitPolicy policy;  // Default gears, no deadline.

  {  // Reference leg: one-request submits, unrecorded.
    service::ServiceConfig cfg;
    cfg.shards = shards;
    cfg.max_batch = batch;
    cfg.net = &net;
    cfg.seed = seed;
    service::CountingService svc(cfg);
    svc.start();
    std::atomic<bool> go{false};
    std::atomic<std::uint64_t> completed{0};
    std::vector<std::thread> threads;
    for (std::uint32_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        service::PolicyClient pc(svc, policy, c, seed + c);
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        std::uint64_t done = 0;
        for (std::uint64_t i = 0; i < ops_per_client; ++i) {
          done += pc.submit(now_ns()).status ==
                  service::SubmitStatus::kCompleted;
        }
        completed.fetch_add(done, std::memory_order_relaxed);
      });
    }
    const std::uint64_t t0 = now_ns();
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    const std::uint64_t elapsed = now_ns() - t0;
    svc.stop();
    out.single_per_sec =
        elapsed > 0 ? static_cast<double>(completed.load()) * 1e9 /
                          static_cast<double>(elapsed)
                    : 0.0;
  }

  {  // Gated leg: batched ingress, recorded, analyzers live.
    StreamingConsistency checker;
    fault::DegradationAccumulator degradation;
    TeeSink tee(checker, degradation);
    service::ServiceConfig cfg;
    cfg.shards = shards;
    cfg.max_batch = batch;
    cfg.net = &net;
    cfg.seed = seed;
    cfg.record = true;
    service::CountingService svc(cfg, &tee);
    svc.start();
    std::atomic<bool> go{false};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> rejected{0};
    std::vector<std::thread> threads;
    for (std::uint32_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        service::PolicyClient pc(svc, policy, c, seed + c);
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        std::uint64_t done = 0, refused = 0;
        for (std::uint64_t i = 0; i < ops_per_client; i += client_batch) {
          const std::uint32_t n = static_cast<std::uint32_t>(
              std::min<std::uint64_t>(client_batch, ops_per_client - i));
          const service::BatchReport rep = pc.submit_batch(now_ns(), n);
          done += rep.completed;
          refused += rep.rejected;
        }
        completed.fetch_add(done, std::memory_order_relaxed);
        rejected.fetch_add(refused, std::memory_order_relaxed);
      });
    }
    const std::uint64_t t0 = now_ns();
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    const std::uint64_t elapsed = now_ns() - t0;
    svc.stop();
    tee.finish();
    out.batched_per_sec =
        elapsed > 0 ? static_cast<double>(completed.load()) * 1e9 /
                          static_cast<double>(elapsed)
                    : 0.0;
    out.client_completed = completed.load();
    out.client_rejected = rejected.load();
    out.stats = svc.stats();
    out.audit = svc.audit();
    out.report = checker.report();
    out.degradation = degradation.result(shards * net.fan_out());
  }

  out.gate_ok = out.audit.exact && out.audit.gap_free &&
                out.degradation.counting_violation == 0.0;
  return out;
}

std::string json_ingress(const IngressResult& r, std::uint32_t clients,
                         std::uint32_t client_batch, std::uint32_t shards) {
  std::ostringstream os;
  os << "{\"clients\":" << clients << ",\"client_batch\":" << client_batch
     << ",\"shards\":" << shards << ",\"single_per_sec\":"
     << fmt_double(r.single_per_sec, 1) << ",\"batched_per_sec\":"
     << fmt_double(r.batched_per_sec, 1) << ",\"batched_over_single\":"
     << fmt_double(r.batched_per_sec / std::max(r.single_per_sec, 1.0), 3)
     << ",\"submitted\":" << r.stats.submitted << ",\"completed\":"
     << r.stats.completed << ",\"rejected\":" << r.stats.rejected
     << ",\"client_completed\":" << r.client_completed
     << ",\"client_rejected\":" << r.client_rejected
     << ",\"ingress_batches\":" << r.stats.ingress_batches
     << ",\"ingress_cells\":" << r.stats.ingress_cells
     << ",\"tokens\":" << r.report.total << ",\"f_nl\":"
     << fmt_double(r.report.f_nl, 4) << ",\"f_nsc\":"
     << fmt_double(r.report.f_nsc, 4) << ",\"audit_exact\":"
     << (r.audit.exact ? 1 : 0) << ",\"audit_gap_free\":"
     << (r.audit.gap_free ? 1 : 0) << ",\"counting_violation\":"
     << fmt_double(r.degradation.counting_violation, 0)
     << ",\"smoothness_gap\":" << fmt_double(r.degradation.smoothness_gap, 1)
     << ",\"p50_us\":" << fmt_double(us(r.stats.latency.p50()), 3)
     << ",\"p99_us\":" << fmt_double(us(r.stats.latency.p99()), 3)
     << ",\"gate_ok\":" << (r.gate_ok ? 1 : 0) << "}";
  return os.str();
}

// --- soak mode (E13): phased arrivals + chaos + live analyzers ---------

struct HealthSample {
  std::uint64_t t_ms = 0;
  std::uint64_t completed = 0;
  std::uint64_t max_depth = 0;
  std::uint64_t max_heartbeat_age_us = 0;
  std::uint64_t respawns = 0;
  std::uint64_t shed = 0;
  bool invariant_ok = true;
};

struct SoakResult {
  service::ServiceStats stats;
  service::ResidueAudit audit;
  ConsistencyReport report;
  fault::Degradation degradation;
  std::vector<HealthSample> samples;
  std::string chaos_desc;
  double base_rate = 0.0;
  double achieved_per_sec = 0.0;
  std::uint64_t soak_ms = 0;
  std::uint64_t deadline_completed = 0;  ///< Policy-client outcomes.
  std::uint64_t deadline_timed_out = 0;
  std::uint64_t deadline_retries = 0;
  bool fault_free_clean = true;  ///< No holes => counting must be clean.
};

/// Offered rate at soak-time `t`: three phases over the run. The middle
/// phase is the ROADMAP's diurnal arrival process — a sine-modulated
/// Poisson rate with two full periods compressed into the phase.
double phase_rate(double base, std::uint64_t t_ms, std::uint64_t total_ms) {
  const double t = static_cast<double>(t_ms);
  const double total = static_cast<double>(total_ms);
  if (t < total * 0.25) return base;  // steady
  if (t < total * 0.75) {             // diurnal
    const double span = total * 0.5;
    const double x = (t - total * 0.25) / span;  // 0..1 across the phase
    return base * (1.0 + 0.7 * std::sin(2.0 * 3.14159265358979 * 2.0 * x));
  }
  return base;  // burst phase: base, with chaos arrival bursts overlaid
}

SoakResult run_soak(const Network& net, std::uint32_t shards,
                    std::uint32_t batch, double base_rate,
                    std::uint64_t soak_ms, std::uint64_t seed) {
  SoakResult out;
  out.base_rate = base_rate;
  out.soak_ms = soak_ms;

  // Expected per-shard processed count sets the chaos horizon so the
  // schedule lands inside the run.
  const std::uint64_t expected_total = static_cast<std::uint64_t>(
      base_rate * static_cast<double>(soak_ms) / 1000.0);
  const std::uint64_t per_shard =
      std::max<std::uint64_t>(expected_total / std::max(shards, 1u), 64);

  service::ServiceConfig cfg;
  cfg.shards = shards;
  cfg.max_batch = batch;
  cfg.net = &net;
  cfg.seed = seed;
  cfg.record = true;
  cfg.supervise = true;
  cfg.shed_high_watermark = 0.90;  // Shed before the queue saturates...
  cfg.shed_low_watermark = 0.50;   // ...resume once half-drained.
  // A seed-driven schedule of crashes and stall windows plus one
  // guaranteed early crash of shard 0.
  fault::ChaosMix mix;
  mix.crashes = shards > 1 ? 1 : 0;  // A second crash on a random shard.
  mix.stall_windows = 1;
  mix.bursts = 1;
  // 2 ms per stalled batch: a visible slowdown, but no wedge. The worker
  // beats before each stalled batch, so its heartbeat never ages past
  // the 5 ms wedge timeout; any wedge the soak counts is host starvation.
  mix.stall_ns = 2'000'000;
  mix.window_ops = std::max<std::uint64_t>(per_shard / 16, 32);
  mix.burst_ops = std::max<std::uint64_t>(expected_total / 16, 64);
  mix.burst_factor = 6.0;
  cfg.chaos = fault::ChaosPlan::random(seed, shards, per_shard, mix);
  // Crash-only (lose 0): recovery must keep counting clean (no holes).
  cfg.chaos.events.push_back(
      {.kind = fault::ChaosKind::kWorkerCrash,
       .shard = 0,
       .at_ops = std::max<std::uint64_t>(per_shard / 8, 16)});
  out.chaos_desc = cfg.chaos.describe();

  StreamingConsistency checker;
  fault::DegradationAccumulator degradation;
  TeeSink tee(checker, degradation);
  service::CountingService svc(cfg, &tee);
  svc.start();

  // A couple of closed-loop deadline clients ride along to exercise the
  // resilient-client path (bounded retries, seeded backoff, timeouts
  // against crashed shards). Allocated outside their threads: timed-out
  // slots stay leased to the service until after stop().
  service::SubmitPolicy policy;
  policy.max_retries = 8;
  policy.deadline_ns = 20'000'000;  // 20 ms
  constexpr std::uint32_t kPolicyClients = 2;
  std::vector<std::unique_ptr<service::PolicyClient>> policy_clients;
  for (std::uint32_t c = 0; c < kPolicyClients; ++c) {
    policy_clients.push_back(std::make_unique<service::PolicyClient>(
        svc, policy, 1000 + c, seed + c));
  }
  std::atomic<bool> clients_stop{false};
  std::vector<std::thread> client_threads;
  for (std::uint32_t c = 0; c < kPolicyClients; ++c) {
    client_threads.emplace_back([&, c] {
      // Alternate the classic single path with a 4-request batch so the
      // soak exercises BOTH ingresses against crashes, stalls, and
      // shedding (a shed batch retries whole; a crashed shard drops its
      // runs element-wise).
      std::uint64_t iter = 0;
      while (!clients_stop.load(std::memory_order_acquire)) {
        if (iter++ % 2 == 0) {
          policy_clients[c]->submit(now_ns());
        } else {
          policy_clients[c]->submit_batch(now_ns(), 4);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }

  // Health poller: periodic mid-run snapshots + invariant checks (the
  // "is the service still sane" half of the residue audit; the exact
  // gap audit needs quiescence and runs after stop()).
  std::atomic<bool> poller_stop{false};
  std::thread poller([&] {
    const std::uint64_t poll_ms = std::max<std::uint64_t>(soak_ms / 40, 50);
    const std::uint64_t t0 = now_ns();
    while (!poller_stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
      const service::ServiceHealth h = svc.health();
      HealthSample s;
      s.t_ms = (now_ns() - t0) / 1'000'000;
      s.respawns = h.respawns;
      s.shed = h.shed;
      std::uint64_t completed = 0;
      for (const service::ShardHealth& sh : h.shards) {
        completed += sh.completed;
        s.max_depth = std::max(s.max_depth, sh.queue_depth);
        s.max_heartbeat_age_us =
            std::max(s.max_heartbeat_age_us, sh.heartbeat_age_ns / 1000);
      }
      s.completed = completed;
      // Mid-run invariant: completions never exceed accepted submits.
      s.invariant_ok = completed <= h.submitted;
      out.samples.push_back(s);
    }
  });

  // Open-loop generator with phased arrivals; chaos arrival bursts
  // multiply the offered rate while the submission index is in-window.
  const std::vector<fault::ChaosEvent> bursts = cfg.chaos.arrival_events();
  Xoshiro256 rng(seed ^ 0x50a7a5ULL);
  const std::uint64_t t0 = now_ns();
  const std::uint64_t t_end = t0 + soak_ms * 1'000'000;
  double next_ns = 0.0;
  std::uint64_t submissions = 0;
  while (true) {
    const std::uint64_t now = now_ns();
    if (now >= t_end) break;
    double rate = phase_rate(base_rate, (now - t0) / 1'000'000, soak_ms);
    for (const fault::ChaosEvent& b : bursts) {
      if (submissions >= b.at_ops && submissions < b.at_ops + b.duration_ops) {
        rate *= b.rate_factor;
      }
    }
    next_ns += -std::log(1.0 - rng.unit()) * (1e9 / std::max(rate, 1.0));
    const std::uint64_t scheduled = t0 + static_cast<std::uint64_t>(next_ns);
    if (scheduled > t_end) break;
    if (scheduled > now + 200'000) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(scheduled - now - 100'000));
    }
    wait_until_ns(scheduled);
    svc.try_submit(0, scheduled);  // Open loop: refusals are the
                                   // service's to count (shed/rejected).
    ++submissions;
  }
  const std::uint64_t gen_elapsed = now_ns() - t0;

  clients_stop.store(true, std::memory_order_release);
  for (std::thread& t : client_threads) t.join();
  poller_stop.store(true, std::memory_order_release);
  poller.join();
  svc.stop();
  tee.finish();

  out.stats = svc.stats();
  out.audit = svc.audit();
  out.report = checker.report();
  out.degradation = degradation.result(shards * net.fan_out());
  out.achieved_per_sec =
      gen_elapsed > 0
          ? static_cast<double>(out.stats.completed) * 1e9 / gen_elapsed
          : 0.0;
  for (const auto& c : policy_clients) {
    out.deadline_completed += c->stats().completed;
    out.deadline_timed_out += c->stats().timed_out;
    out.deadline_retries += c->stats().retries;
  }
  policy_clients.clear();  // Safe: post-stop, every slot has resolved.
  // The self-healing claim: when nothing burned a ticket (no holes),
  // counting must be PERFECT despite crashes, respawns, stalls, sheds.
  if (out.audit.holes == 0) {
    out.fault_free_clean = out.degradation.counting_violation == 0.0;
  }
  return out;
}

std::string json_soak(const SoakResult& r) {
  std::ostringstream os;
  std::uint64_t max_depth = 0, max_age_us = 0;
  bool invariants_ok = true;
  for (const HealthSample& s : r.samples) {
    max_depth = std::max(max_depth, s.max_depth);
    max_age_us = std::max(max_age_us, s.max_heartbeat_age_us);
    invariants_ok = invariants_ok && s.invariant_ok;
  }
  os << "{\"soak_ms\":" << r.soak_ms << ",\"base_rate\":"
     << fmt_double(r.base_rate, 1) << ",\"achieved_per_sec\":"
     << fmt_double(r.achieved_per_sec, 1) << ",\"submitted\":"
     << r.stats.submitted << ",\"rejected\":" << r.stats.rejected
     << ",\"shed\":" << r.stats.shed << ",\"completed\":"
     << r.stats.completed << ",\"dropped\":" << r.stats.dropped
     << ",\"crash_lost\":" << r.stats.crash_lost << ",\"abandoned\":"
     << r.stats.abandoned << ",\"timed_out\":" << r.stats.timed_out
     << ",\"crashes\":" << r.stats.crashes << ",\"respawns\":"
     << r.stats.respawns << ",\"wedge_detections\":"
     << r.stats.wedge_detections << ",\"holes\":" << r.audit.holes
     << ",\"audit_exact\":" << (r.audit.exact ? 1 : 0)
     << ",\"audit_gap_free\":" << (r.audit.gap_free ? 1 : 0)
     << ",\"fault_free_clean\":" << (r.fault_free_clean ? 1 : 0)
     << ",\"counting_violation\":"
     << fmt_double(r.degradation.counting_violation, 0)
     << ",\"smoothness_gap\":" << fmt_double(r.degradation.smoothness_gap, 1)
     << ",\"tokens\":" << r.report.total << ",\"f_nl\":"
     << fmt_double(r.report.f_nl, 4) << ",\"f_nsc\":"
     << fmt_double(r.report.f_nsc, 4) << ",\"p50_us\":"
     << fmt_double(us(r.stats.latency.p50()), 3) << ",\"p99_us\":"
     << fmt_double(us(r.stats.latency.p99()), 3)
     << ",\"deadline_completed\":" << r.deadline_completed
     << ",\"deadline_timed_out\":" << r.deadline_timed_out
     << ",\"deadline_retries\":" << r.deadline_retries
     << ",\"health_samples\":" << r.samples.size()
     << ",\"invariants_ok\":" << (invariants_ok ? 1 : 0)
     << ",\"max_queue_depth\":" << max_depth
     << ",\"max_heartbeat_age_us\":" << max_age_us
     << ",\"chaos\":\"" << r.chaos_desc << "\"}";
  return os.str();
}

// --- elastic mode (E14): diurnal ramp through live splits/merges -------

struct ElasticResult {
  service::ServiceStats stats;
  service::ResidueAudit audit;
  std::vector<service::EpochStats> epochs;
  double base_rate = 0.0;
  double achieved_per_sec = 0.0;
  std::uint64_t elastic_ms = 0;
  std::uint64_t submissions = 0;
  std::uint32_t forced_resizes = 0;
  bool epochs_ok = true;
  bool gate_ok = false;  ///< audit && >=2 splits && >=2 merges.
};

/// Offered-rate shape: two full low/high cycles (five segments
/// low-high-low-high-low), the "diurnal" ramp compressed into the run.
/// Segment k also carries the forced-resize target for its boundary:
/// peaks want the deepest level, valleys want level 0.
double elastic_rate(double base, double x /* 0..1 */) {
  // Smooth sine ramp between 0.4x and 1.6x of base, two periods.
  return base * (1.0 + 0.6 * std::sin(2.0 * 3.14159265358979 * 2.0 * x -
                                      3.14159265358979 / 2.0));
}

ElasticResult run_elastic(const Network& net, std::uint32_t max_level,
                          std::uint32_t batch, double base_rate,
                          std::uint64_t elastic_ms, std::uint64_t seed,
                          bool controller) {
  ElasticResult out;
  out.base_rate = base_rate;
  out.elastic_ms = elastic_ms;

  service::ServiceConfig cfg;
  cfg.max_batch = batch;
  cfg.net = &net;
  cfg.seed = seed;
  cfg.record = true;  // Per-epoch F_nl/F_nsc needs the recording tee.
  cfg.shed_high_watermark = 0.90;
  cfg.shed_low_watermark = 0.50;
  cfg.elastic.enabled = true;
  cfg.elastic.max_level = max_level;
  cfg.elastic.controller = controller;
  cfg.elastic.split_queue_frac = 0.35;
  cfg.elastic.merge_queue_frac = 0.03;
  cfg.elastic.breach_polls = 3;
  cfg.elastic.cooldown_ns = elastic_ms * 1'000'000 / 25;
  if (std::string err = service::validate(cfg); !err.empty()) {
    std::cerr << "elastic config: " << err << "\n";
    return out;
  }

  StreamingConsistency checker;  // Whole-run downstream analyzer; the
                                 // per-epoch tee lives in the service.
  service::CountingService svc(cfg, &checker);
  svc.start();

  // Phase boundaries at the sine's quarter points; the target level
  // follows the ramp (peak => max_level, valley => 0). The controller
  // may get there first — the forced resize is the fallback that makes
  // the >= 2 splits / >= 2 merges gate schedule-independent.
  const std::uint32_t targets[] = {max_level, 0, max_level, 0};
  const double boundaries[] = {0.20, 0.45, 0.70, 0.95};
  std::size_t next_boundary = 0;

  Xoshiro256 rng(seed ^ 0xe1a5ULL);
  const std::uint64_t t0 = now_ns();
  const std::uint64_t t_end = t0 + elastic_ms * 1'000'000;
  double next_ns = 0.0;
  while (true) {
    const std::uint64_t now = now_ns();
    if (now >= t_end) break;
    const double x = static_cast<double>(now - t0) /
                     static_cast<double>(t_end - t0);
    if (next_boundary < std::size(boundaries) &&
        x >= boundaries[next_boundary]) {
      const std::uint32_t target = targets[next_boundary];
      ++next_boundary;
      if (svc.current_level() != target && svc.resize(target).empty()) {
        ++out.forced_resizes;
      }
      continue;
    }
    const double rate = std::max(elastic_rate(base_rate, x), 1.0);
    next_ns += -std::log(1.0 - rng.unit()) * (1e9 / rate);
    const std::uint64_t scheduled = t0 + static_cast<std::uint64_t>(next_ns);
    if (scheduled > t_end) break;
    if (scheduled > now + 200'000) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(scheduled - now - 100'000));
    }
    wait_until_ns(scheduled);
    // Every 4th tick rides the batched ingress as a fire-and-forget
    // 4-request batch and consumes four inter-arrival gaps, keeping the
    // offered RATE unchanged — the epoch fence must treat the batch as
    // ONE pending lease and every per-epoch audit stays exact. The rest
    // are classic open-loop singles; refusals are the service's to
    // count (shed/rejected) either way.
    if (out.submissions % 4 == 3) {
      svc.submit_batch(0, scheduled, nullptr, 4);
      for (int g = 0; g < 3; ++g) {
        next_ns += -std::log(1.0 - rng.unit()) * (1e9 / rate);
      }
    } else {
      svc.try_submit(0, scheduled);
    }
    ++out.submissions;
  }
  const std::uint64_t gen_elapsed = now_ns() - t0;
  svc.stop();
  checker.finish();

  out.stats = svc.stats();
  out.audit = svc.audit();
  out.epochs = svc.epoch_history();
  out.achieved_per_sec =
      gen_elapsed > 0
          ? static_cast<double>(out.stats.completed) * 1e9 / gen_elapsed
          : 0.0;
  for (const service::EpochStats& es : out.epochs) {
    if (!es.ok()) out.epochs_ok = false;
  }
  out.gate_ok = out.audit.ok() && out.epochs_ok && out.stats.splits >= 2 &&
                out.stats.merges >= 2;
  return out;
}

std::string json_elastic(const ElasticResult& r) {
  std::ostringstream os;
  os << "{\"elastic_ms\":" << r.elastic_ms << ",\"base_rate\":"
     << fmt_double(r.base_rate, 1) << ",\"achieved_per_sec\":"
     << fmt_double(r.achieved_per_sec, 1) << ",\"submissions\":"
     << r.submissions << ",\"submitted\":" << r.stats.submitted
     << ",\"completed\":" << r.stats.completed << ",\"shed\":"
     << r.stats.shed << ",\"rejected\":" << r.stats.rejected
     << ",\"epochs\":" << r.stats.epochs << ",\"splits\":" << r.stats.splits
     << ",\"merges\":" << r.stats.merges << ",\"forced_resizes\":"
     << r.forced_resizes << ",\"final_level\":" << r.stats.final_level
     << ",\"audit_exact\":" << (r.audit.exact ? 1 : 0)
     << ",\"audit_gap_free\":" << (r.audit.gap_free ? 1 : 0)
     << ",\"epochs_ok\":" << (r.epochs_ok ? 1 : 0)
     << ",\"gate_ok\":" << (r.gate_ok ? 1 : 0) << ",\"epoch_log\":[";
  for (std::size_t i = 0; i < r.epochs.size(); ++i) {
    const service::EpochStats& es = r.epochs[i];
    if (i > 0) os << ",";
    os << "{\"epoch\":" << es.index << ",\"level\":" << es.level
       << ",\"shards\":" << es.shards << ",\"tickets\":" << es.tickets
       << ",\"completed\":" << es.completed << ",\"shed\":" << es.shed
       << ",\"audit_exact\":" << (es.audit_exact ? 1 : 0)
       << ",\"gap_free\":" << (es.gap_free ? 1 : 0) << ",\"f_nl\":"
       << fmt_double(es.f_nl, 4) << ",\"f_nl_bound\":"
       << fmt_double(es.f_nl_bound, 4) << ",\"f_nsc\":"
       << fmt_double(es.f_nsc, 4) << ",\"f_nsc_bound\":"
       << fmt_double(es.f_nsc_bound, 4) << ",\"p50_us\":"
       << fmt_double(us(es.latency.p50()), 3) << ",\"p99_us\":"
       << fmt_double(us(es.latency.p99()), 3) << "}";
  }
  os << "]}";
  return os.str();
}

std::string json_latency(const LatencyRow& row) {
  std::ostringstream os;
  os << "\"ops_per_sec\":" << fmt_double(row.ops_per_sec, 1)
     << ",\"p50_us\":" << fmt_double(row.p50_us, 3)
     << ",\"p99_us\":" << fmt_double(row.p99_us, 3)
     << ",\"p999_us\":" << fmt_double(row.p999_us, 3);
  return os.str();
}

/// Whether the offered rate `rate` given to --`flag` is usable: finite
/// and not negative (0 asks for a saturation probe). Says why not.
bool rate_ok(const char* flag, double rate) {
  if (std::isfinite(rate) && rate >= 0.0) return true;
  std::cerr << "bench_service: --" << flag
            << " must be a finite rate >= 0 (0 probes), got " << rate << "\n";
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cn;
  CliArgs args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);
  const bool json = args.get_bool("json", false);
  const bool faults = !args.get_bool("no-faults", false);
  const auto width = args.get_uint<std::uint32_t>("width", 8);
  const auto clients = args.get_uint<std::uint32_t>(
      "clients", smoke ? 4 : 8, kMaxThreadsFlag);
  const auto ops = args.get_uint<std::uint64_t>("ops", smoke ? 400 : 2000);
  const auto batch = args.get_uint<std::uint32_t>("batch", 32);
  const auto seed = args.get_uint<std::uint64_t>("seed", 1);

  std::vector<std::uint32_t> shard_counts;
  {
    std::istringstream ss(args.get("shards", smoke ? "1,2" : "1,2,4"));
    for (std::string tok; std::getline(ss, tok, ',');) {
      shard_counts.push_back(static_cast<std::uint32_t>(
          parse_uint("shards", tok, kMaxThreadsFlag)));
    }
  }

  const Network net = make_bitonic(width);

  // --- ingress mode (E15; exclusive like --soak/--elastic) ------------
  if (args.get_bool("ingress", false)) {
    const auto client_batch = args.get_uint<std::uint32_t>("client-batch", 16);
    const auto ing_shards = args.get_uint<std::uint32_t>(
        "ingress-shards", shard_counts.back(), kMaxThreadsFlag);
    if (!json) {
      std::cout << "E15: batched ingress — " << clients << " clients x "
                << ops << " ops as submit_batch(" << client_batch << "), "
                << ing_shards << " shards, recorded + live analyzers\n";
    }
    const IngressResult r = run_ingress(net, ing_shards, batch, clients,
                                        client_batch, ops, seed);
    if (json) {
      std::cout << json_ingress(r, clients, client_batch, ing_shards)
                << "\n";
    } else {
      std::cout << "\n  single " << fmt_double(r.single_per_sec / 1e3, 1)
                << "k req/s  batched "
                << fmt_double(r.batched_per_sec / 1e3, 1) << "k req/s ("
                << fmt_double(
                       r.batched_per_sec / std::max(r.single_per_sec, 1.0),
                       2)
                << "x)\n  completed " << r.stats.completed << "  rejected "
                << r.stats.rejected << "  ingress_batches "
                << r.stats.ingress_batches << "  ingress_cells "
                << r.stats.ingress_cells << "\n  tokens " << r.report.total
                << "  f_nl " << fmt_double(r.report.f_nl, 4) << "  f_nsc "
                << fmt_double(r.report.f_nsc, 4) << "\n  audit_exact "
                << (r.audit.exact ? "yes" : "NO") << "  gap_free "
                << (r.audit.gap_free ? "yes" : "NO")
                << "  counting_violation "
                << fmt_double(r.degradation.counting_violation, 0)
                << "  gate " << (r.gate_ok ? "PASS" : "FAIL") << "\n";
    }
    // The E15 acceptance gate: a fault-free batched run must count
    // perfectly — residue audit exact + gap-free, zero violations.
    return r.gate_ok ? 0 : 1;
  }

  // --- elastic mode (E14; exclusive like --soak) -----------------------
  if (args.get_bool("elastic", false)) {
    const auto elastic_ms =
        args.get_uint<std::uint64_t>("elastic-ms", smoke ? 3000 : 15000);
    const std::uint32_t lg_w = log2_floor(width);
    auto max_level = args.get_uint<std::uint32_t>(
        "elastic-max-level", std::min<std::uint32_t>(lg_w, 2));
    max_level = std::min(max_level, lg_w);
    const bool controller = !args.get_bool("no-controller", false);
    double base_rate = args.get_double("elastic-rate", 0.0);
    if (!rate_ok("elastic-rate", base_rate)) return 2;
    if (base_rate == 0.0) {
      // Saturation probe at level 0 (one shard, recorded — the elastic
      // run records too); the diurnal peak reaches 1.6x base, so base
      // at ~45% of the single-shard rate makes the peak oversubscribe
      // one shard while the deepest level still has headroom.
      engine::RunSpec probe;
      probe.backend = "service";
      probe.net = &net;
      probe.threads = clients;
      probe.ops_per_thread = 500;
      probe.service.shards = 1;
      probe.service.max_batch = batch;
      probe.seed = seed;
      const engine::RunResult res = engine::run_backend(probe);
      if (!res.ok()) {
        std::cerr << "elastic saturation probe: " << res.error << "\n";
        return 1;
      }
      base_rate = std::max(res.metric("ops_per_sec") * 0.45, 5000.0);
    }
    if (!json) {
      std::cout << "E14: elastic width — " << elastic_ms << " ms diurnal "
                << "ramp, levels 0.." << max_level << " (1.."
                << (1u << max_level) << " shards), base rate "
                << fmt_double(base_rate / 1e3, 1) << "k/s"
                << (controller ? ", adaptive controller on" : "") << "\n";
    }
    const ElasticResult r = run_elastic(net, max_level, batch, base_rate,
                                        elastic_ms, seed, controller);
    if (json) {
      std::cout << json_elastic(r) << "\n";
    } else {
      std::cout << "\n  submissions " << r.submissions << "  completed "
                << r.stats.completed << "  shed " << r.stats.shed
                << "  rejected " << r.stats.rejected << "\n  epochs "
                << r.stats.epochs << "  splits " << r.stats.splits
                << "  merges " << r.stats.merges << "  forced "
                << r.forced_resizes << "  final_level " << r.stats.final_level
                << "\n  audit_exact " << (r.audit.exact ? "yes" : "NO")
                << "  gap_free " << (r.audit.gap_free ? "yes" : "NO")
                << "  epochs_ok " << (r.epochs_ok ? "yes" : "NO") << "\n\n";
      TablePrinter et({"epoch", "level", "shards", "tickets", "completed",
                       "ok", "F_nl", "bound_nl", "F_nsc", "bound_nsc",
                       "p99 us"});
      for (const service::EpochStats& es : r.epochs) {
        et.add_row({std::to_string(es.index), std::to_string(es.level),
                    std::to_string(es.shards), std::to_string(es.tickets),
                    std::to_string(es.completed), es.ok() ? "yes" : "NO",
                    fmt_double(es.f_nl, 4), fmt_double(es.f_nl_bound, 4),
                    fmt_double(es.f_nsc, 4), fmt_double(es.f_nsc_bound, 4),
                    fmt_double(us(es.latency.p99()), 1)});
      }
      et.print(std::cout);
      std::cout << "\nNote: the Cor 5.12/5.13 columns are ADVERSARIAL lower "
                   "bounds at each epoch's split level — an adversary can "
                   "force at least that fraction; a benign schedule may "
                   "measure anywhere in [0, 1].\n";
    }
    // The E14 acceptance gate: >= 2 splits, >= 2 merges, and the residue
    // audit exact + gap-free across every epoch boundary.
    return r.gate_ok ? 0 : 1;
  }

  // --- soak mode (exclusive: runs instead of the E12 sections) ---------
  if (args.get_bool("soak", false)) {
    const auto soak_ms =
        args.get_uint<std::uint64_t>("soak-ms", smoke ? 4000 : 20000);
    const auto soak_shards = args.get_uint<std::uint32_t>(
        "soak-shards", shard_counts.back(), kMaxThreadsFlag);
    double base_rate = args.get_double("soak-rate", 0.0);
    if (!rate_ok("soak-rate", base_rate)) return 2;
    if (base_rate == 0.0) {
      // Quick closed-loop saturation probe; soak offers ~30% of it so
      // the steady phase leaves headroom for the diurnal peak (1.7x)
      // and the chaos bursts to push the service into shedding.
      engine::RunSpec probe;
      probe.backend = "service";
      probe.net = &net;
      probe.threads = clients;
      probe.ops_per_thread = 500;
      probe.service.shards = soak_shards;
      probe.service.max_batch = batch;
      probe.record_trace = false;
      probe.seed = seed;
      const engine::RunResult res = engine::run_backend(probe);
      if (!res.ok()) {
        std::cerr << "soak saturation probe: " << res.error << "\n";
        return 1;
      }
      base_rate = std::max(res.metric("ops_per_sec") * 0.30, 5000.0);
    }
    if (!json) {
      std::cout << "E13: self-healing soak — " << soak_ms << " ms, "
                << soak_shards << " shards, base rate "
                << fmt_double(base_rate / 1e3, 1) << "k/s\n";
    }
    const SoakResult r =
        run_soak(net, soak_shards, batch, base_rate, soak_ms, seed);
    if (json) {
      std::cout << json_soak(r) << "\n";
    } else {
      std::cout << "\n  submitted " << r.stats.submitted << "  completed "
                << r.stats.completed << "  shed " << r.stats.shed
                << "  rejected " << r.stats.rejected << "\n  crashes "
                << r.stats.crashes << "  respawns " << r.stats.respawns
                << "  wedge_detections " << r.stats.wedge_detections
                << "  crash_lost " << r.stats.crash_lost << "  abandoned "
                << r.stats.abandoned << "\n  holes " << r.audit.holes
                << "  audit_exact " << (r.audit.exact ? "yes" : "NO")
                << "  gap_free " << (r.audit.gap_free ? "yes" : "NO")
                << "  counting_violation "
                << fmt_double(r.degradation.counting_violation, 0)
                << "\n  f_nl " << fmt_double(r.report.f_nl, 4) << "  f_nsc "
                << fmt_double(r.report.f_nsc, 4) << "  p50 "
                << fmt_double(us(r.stats.latency.p50()), 1) << " us  p99 "
                << fmt_double(us(r.stats.latency.p99()), 1)
                << " us\n  deadline clients: completed "
                << r.deadline_completed << "  timed_out "
                << r.deadline_timed_out << "  retries " << r.deadline_retries
                << "\n  chaos: " << r.chaos_desc << "\n";
    }
    // Gates (also applied by CI on the JSON): the audit must account
    // every hole exactly, and a hole-free run must count perfectly.
    if (!r.audit.exact || !r.fault_free_clean) return 1;
    return 0;
  }

  if (!json) {
    std::cout << "E12: counting-as-a-service — saturation, tail latency, "
                 "consistency\n\nwidth " << width << ", clients " << clients
              << ", ops/client " << ops << ", worker batch " << batch
              << "\n\n";
  }

  // --- saturation (closed loop, all rows via the engine registry) ------
  struct SatRow {
    std::string label;
    LatencyRow lat;
  };
  std::vector<SatRow> saturation;
  double service_sat = 0.0;  // best service rate, anchor for open loop

  for (const std::uint32_t shards : shard_counts) {
    engine::RunSpec spec;
    spec.backend = "service";
    spec.net = &net;
    spec.threads = clients;
    spec.ops_per_thread = ops;
    spec.service.shards = shards;
    spec.service.max_batch = batch;
    spec.record_trace = false;
    spec.seed = seed;
    const engine::RunResult res = engine::run_backend(spec);
    if (!res.ok()) {
      std::cerr << "service shards=" << shards << ": " << res.error << "\n";
      return 1;
    }
    LatencyRow row;
    row.ops_per_sec = res.metric("ops_per_sec");
    row.p50_us = res.metric("p50_us");
    row.p99_us = res.metric("p99_us");
    row.p999_us = res.metric("p999_us");
    service_sat = std::max(service_sat, row.ops_per_sec);
    saturation.push_back(
        {"service_shards" + std::to_string(shards), row});

    // The same closed loop through the batched ingress: requests ride
    // submit_batch(16), one ticket-range draw and at most min(16,
    // shards) queue cells per call.
    engine::RunSpec bspec = spec;
    bspec.service_client_batch = 16;
    const engine::RunResult bres = engine::run_backend(bspec);
    if (!bres.ok()) {
      std::cerr << "service shards=" << shards << " batched: " << bres.error
                << "\n";
      return 1;
    }
    LatencyRow brow;
    brow.ops_per_sec = bres.metric("ops_per_sec");
    brow.p50_us = bres.metric("p50_us");
    brow.p99_us = bres.metric("p99_us");
    brow.p999_us = bres.metric("p999_us");
    service_sat = std::max(service_sat, brow.ops_per_sec);
    saturation.push_back(
        {"service_shards" + std::to_string(shards) + "_batch16", brow});
  }

  struct Baseline {
    std::string label;
    std::string backend;
    const Network* bnet;
    std::uint32_t bwidth;
    std::uint32_t batch_size;
  };
  const Baseline baselines[] = {
      {"fetch_inc", "fetch_inc", nullptr, 0, 1},
      {"mcs", "mcs", nullptr, 0, 1},
      {"combining_tree16", "combining_tree", nullptr, 16, 1},
      {"diffracting_tree8", "diffracting_tree", nullptr, 8, 1},
      {"concurrent_single", "concurrent", &net, 0, 1},
      {"concurrent_batched", "concurrent", &net, 0, batch},
  };
  for (const Baseline& b : baselines) {
    engine::RunSpec spec;
    spec.backend = b.backend;
    spec.net = b.bnet;
    if (b.bwidth > 0) spec.width = b.bwidth;
    spec.threads = clients;
    spec.ops_per_thread = ops;
    spec.batch_size = b.batch_size;
    spec.seed = seed;
    spec.record_trace = false;  // saturation: bare code path
    const engine::RunResult fast = engine::run_backend(spec);
    if (!fast.ok()) {
      std::cerr << b.label << ": " << fast.error << "\n";
      return 1;
    }
    // Latency percentiles need per-op timestamps: a second, recorded run
    // (smaller, so the recording clocks stay affordable). The batched
    // concurrent row has no per-token timestamps; reuse the single-token
    // recording for its percentiles.
    engine::RunSpec rec = spec;
    rec.batch_size = 1;
    rec.ops_per_thread = std::max<std::uint64_t>(ops / 4, 100);
    rec.record_trace = true;
    const engine::RunResult slow = engine::run_backend(rec);
    if (!slow.ok()) {
      std::cerr << b.label << " (recorded): " << slow.error << "\n";
      return 1;
    }
    LatencyRow row = trace_latency(slow);
    row.ops_per_sec = fast.metric("ops_per_sec");
    saturation.push_back({b.label, row});
  }

  // --- open loop -------------------------------------------------------
  struct OpenRow {
    std::string label;
    std::string arrivals;
    OpenLoopResult r;
  };
  std::vector<OpenRow> open_rows;
  const double fractions[] = {0.5, 0.9};
  const std::uint64_t open_ops = smoke ? 1500 : clients * ops;
  for (const std::uint32_t shards : shard_counts) {
    for (const double frac : fractions) {
      const double rate = std::max(service_sat * frac, 1000.0);
      open_rows.push_back(
          {"service_shards" + std::to_string(shards), "poisson",
           run_open_loop(net, shards, batch, rate, open_ops, 1, seed)});
      open_rows.push_back(
          {"service_shards" + std::to_string(shards), "bursty",
           run_open_loop(net, shards, batch, rate, open_ops, 64, seed)});
    }
  }

  // --- consistency (streaming analyzers attached to the live trace) ---
  struct ConsRow {
    std::uint32_t shards = 0;
    double f_nl = 0.0;
    double f_nsc = 0.0;
    std::uint64_t total = 0;
    std::uint64_t counting_violation = 0;
    double smoothness_gap = 0.0;
  };
  std::vector<ConsRow> cons_rows;
  for (const std::uint32_t shards : shard_counts) {
    engine::RunSpec spec;
    spec.backend = "service";
    spec.net = &net;
    spec.threads = clients;
    spec.ops_per_thread = smoke ? 200 : 1000;
    spec.service.shards = shards;
    spec.service.max_batch = batch;
    spec.seed = seed;
    spec.keep_trace = false;   // stream straight into the analyzers
    spec.fault.enabled = true;  // inert plan: requests the quiescent
                                // degradation report (all p = 0)
    const engine::RunResult res = engine::run_backend(spec);
    if (!res.ok()) {
      std::cerr << "service consistency shards=" << shards << ": "
                << res.error << "\n";
      return 1;
    }
    ConsRow row;
    row.shards = shards;
    row.f_nl = res.report.f_nl;
    row.f_nsc = res.report.f_nsc;
    row.total = res.report.total;
    row.counting_violation =
        static_cast<std::uint64_t>(res.metric("counting_violation"));
    row.smoothness_gap = res.metric("smoothness_gap");
    cons_rows.push_back(row);
  }

  // --- degradation under injected worker faults ------------------------
  struct DegRow {
    std::uint32_t shards = 0;
    double p_stall = 0.0;
    double p_abandon = 0.0;
    std::uint64_t dropped = 0;
    std::uint64_t stalls = 0;
    std::uint64_t counting_violation = 0;
    double p99_us = 0.0;
  };
  std::vector<DegRow> deg_rows;
  if (faults) {
    for (const std::uint32_t shards : shard_counts) {
      engine::RunSpec spec;
      spec.backend = "service";
      spec.net = &net;
      spec.threads = clients;
      spec.ops_per_thread = smoke ? 200 : 1000;
      spec.service.shards = shards;
      spec.service.max_batch = batch;
      spec.seed = seed;
      spec.keep_trace = false;
      spec.fault.enabled = true;
      spec.fault.p_thread_stall = 0.01;
      spec.fault.stall_ns = 100000;
      spec.fault.p_thread_abandon = 0.005;
      const engine::RunResult res = engine::run_backend(spec);
      if (!res.ok()) {
        std::cerr << "service degradation shards=" << shards << ": "
                  << res.error << "\n";
        return 1;
      }
      DegRow row;
      row.shards = shards;
      row.p_stall = spec.fault.p_thread_stall;
      row.p_abandon = spec.fault.p_thread_abandon;
      row.dropped =
          static_cast<std::uint64_t>(res.metric("fault_tokens_abandoned"));
      row.stalls = static_cast<std::uint64_t>(res.metric("fault_stalls"));
      row.counting_violation =
          static_cast<std::uint64_t>(res.metric("counting_violation"));
      row.p99_us = res.metric("p99_us");
      deg_rows.push_back(row);
    }
  }

  // --- output ----------------------------------------------------------
  if (json) {
    std::ostringstream os;
    os << "{\"width\":" << width << ",\"clients\":" << clients
       << ",\"worker_batch\":" << batch << ",\"saturation\":[";
    for (std::size_t i = 0; i < saturation.size(); ++i) {
      if (i > 0) os << ",";
      os << "{\"structure\":\"" << saturation[i].label << "\","
         << json_latency(saturation[i].lat) << "}";
    }
    os << "],\"open_loop\":[";
    for (std::size_t i = 0; i < open_rows.size(); ++i) {
      if (i > 0) os << ",";
      const OpenRow& r = open_rows[i];
      os << "{\"structure\":\"" << r.label << "\",\"arrivals\":\""
         << r.arrivals << "\",\"offered_per_sec\":"
         << fmt_double(r.r.offered_per_sec, 1)
         << ",\"achieved_per_sec\":" << fmt_double(r.r.achieved_per_sec, 1)
         << ",\"rejected\":" << r.r.rejected << ","
         << json_latency(r.r.lat) << "}";
    }
    os << "],\"consistency\":[";
    for (std::size_t i = 0; i < cons_rows.size(); ++i) {
      if (i > 0) os << ",";
      const ConsRow& r = cons_rows[i];
      os << "{\"shards\":" << r.shards << ",\"tokens\":" << r.total
         << ",\"f_nl\":" << fmt_double(r.f_nl, 4)
         << ",\"f_nsc\":" << fmt_double(r.f_nsc, 4)
         << ",\"counting_violation\":" << r.counting_violation
         << ",\"smoothness_gap\":" << fmt_double(r.smoothness_gap, 1) << "}";
    }
    os << "],\"degradation\":[";
    for (std::size_t i = 0; i < deg_rows.size(); ++i) {
      if (i > 0) os << ",";
      const DegRow& r = deg_rows[i];
      os << "{\"shards\":" << r.shards << ",\"p_stall\":"
         << fmt_double(r.p_stall, 3) << ",\"p_abandon\":"
         << fmt_double(r.p_abandon, 3) << ",\"dropped\":" << r.dropped
         << ",\"stalls\":" << r.stalls << ",\"counting_violation\":"
         << r.counting_violation << ",\"p99_us\":" << fmt_double(r.p99_us, 3)
         << "}";
    }
    os << "]}";
    std::cout << os.str() << "\n";
    return 0;
  }

  std::cout << "saturation (closed loop, " << clients << " clients):\n";
  TablePrinter sat({"structure", "ops/sec", "p50 us", "p99 us", "p999 us"});
  for (const SatRow& r : saturation) {
    sat.add_row({r.label, fmt_double(r.lat.ops_per_sec / 1e6, 3) + "M",
                 fmt_double(r.lat.p50_us, 1), fmt_double(r.lat.p99_us, 1),
                 fmt_double(r.lat.p999_us, 1)});
  }
  sat.print(std::cout);

  std::cout << "\nopen loop (latency from scheduled arrival):\n";
  TablePrinter ol({"structure", "arrivals", "offered/s", "achieved/s",
                   "rejected", "p50 us", "p99 us", "p999 us"});
  for (const OpenRow& r : open_rows) {
    ol.add_row({r.label, r.arrivals,
                fmt_double(r.r.offered_per_sec / 1e3, 1) + "k",
                fmt_double(r.r.achieved_per_sec / 1e3, 1) + "k",
                std::to_string(r.r.rejected), fmt_double(r.r.lat.p50_us, 1),
                fmt_double(r.r.lat.p99_us, 1),
                fmt_double(r.r.lat.p999_us, 1)});
  }
  ol.print(std::cout);

  std::cout << "\nconsistency at quiescence (streaming analyzers, live):\n";
  TablePrinter ct({"shards", "tokens", "F_nl", "F_nsc", "counting_violation",
                   "smoothness_gap"});
  for (const ConsRow& r : cons_rows) {
    ct.add_row({std::to_string(r.shards), std::to_string(r.total),
                fmt_double(r.f_nl, 4), fmt_double(r.f_nsc, 4),
                std::to_string(r.counting_violation),
                fmt_double(r.smoothness_gap, 1)});
  }
  ct.print(std::cout);

  if (!deg_rows.empty()) {
    std::cout << "\ndegradation under worker faults:\n";
    TablePrinter dt({"shards", "p_stall", "p_abandon", "dropped", "stalls",
                     "counting_violation", "p99 us"});
    for (const DegRow& r : deg_rows) {
      dt.add_row({std::to_string(r.shards), fmt_double(r.p_stall, 3),
                  fmt_double(r.p_abandon, 3), std::to_string(r.dropped),
                  std::to_string(r.stalls),
                  std::to_string(r.counting_violation),
                  fmt_double(r.p99_us, 1)});
    }
    dt.print(std::cout);
    std::cout << "\nNote: with N > 1 shards, dropped tickets unbalance the "
                 "residue classes and leave value holes (counting_violation "
                 "= 1) — the measured cost of faults under modular sharding "
                 "(Lemma 3.1 assumes every ticket completes). A single "
                 "shard has no residue classes to unbalance, so drops stay "
                 "counting-clean there.\n";
  }
  return 0;
}
