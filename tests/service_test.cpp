// Tests for the sharded counting service (src/service): the bounded MPSC
// queue, the HDR-style latency histogram, residue-class routing (Lemma
// 3.1 modular counting), quiescent gap-freedom, fault-drop signaling,
// and the recorded path's conformance to the TraceSink issue-order
// contract (StreamingConsistency attaches live and must see zero
// violations at quiescence).
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/constructions.hpp"
#include "fault/chaos.hpp"
#include "service/client.hpp"
#include "service/histogram.hpp"
#include "service/queue.hpp"
#include "service/service.hpp"
#include "trace/sink.hpp"
#include "trace/streaming.hpp"
#include "util/eventcount.hpp"
#include "util/rng.hpp"

namespace cn {
namespace {

using service::BoundedQueue;
using service::CountingService;
using service::LatencyHistogram;
using service::ServiceConfig;
using service::ServiceStats;

// --- BoundedQueue ---

TEST(BoundedQueue, FifoSingleThread) {
  // Three full laps: every cell's relative sequence wraps past its lap
  // base twice, and a fresh (zeroed) ring must read as empty, not full.
  for (const std::size_t cap : {std::size_t{2}, std::size_t{8}}) {
    BoundedQueue<int> q(cap);
    EXPECT_EQ(q.capacity(), cap);
    int v = -1;
    int next = 0;
    for (int lap = 0; lap < 3; ++lap) {
      EXPECT_FALSE(q.try_pop(v)) << "cap " << cap << " lap " << lap;
      EXPECT_EQ(q.approx_size(), 0u);
      const int first = next;
      for (std::size_t i = 0; i < cap; ++i) {
        EXPECT_TRUE(q.try_push(next++)) << "cap " << cap << " lap " << lap;
      }
      EXPECT_EQ(q.approx_size(), cap);
      EXPECT_FALSE(q.try_push(99)) << "full queue must reject";
      for (std::size_t i = 0; i < cap; ++i) {
        ASSERT_TRUE(q.try_pop(v));
        EXPECT_EQ(v, first + static_cast<int>(i));
      }
      EXPECT_FALSE(q.try_pop(v)) << "empty queue must report empty";
    }
  }
}

TEST(BoundedQueue, CapacityRoundsUpToPowerOfTwo) {
  BoundedQueue<int> q(5);
  EXPECT_EQ(q.capacity(), 8u);
  BoundedQueue<int> q1(1);
  EXPECT_GE(q1.capacity(), 2u);
}

TEST(BoundedQueue, ManyProducersOneConsumerDeliverEverything) {
  // At capacity 8 the ring laps 2,500 times under contention.
  for (const std::size_t cap : {std::size_t{8}, std::size_t{1024}}) {
    BoundedQueue<std::uint64_t> q(cap);
    constexpr std::uint32_t kProducers = 4;
    constexpr std::uint64_t kEach = 5000;
    std::vector<std::thread> producers;
    for (std::uint32_t t = 0; t < kProducers; ++t) {
      producers.emplace_back([&, t] {
        for (std::uint64_t i = 0; i < kEach; ++i) {
          while (!q.try_push(t * kEach + i)) std::this_thread::yield();
        }
      });
    }
    std::vector<std::uint64_t> got;
    got.reserve(kProducers * kEach);
    std::uint64_t v = 0;
    while (got.size() < kProducers * kEach) {
      if (q.try_pop(v)) {
        got.push_back(v);
      } else {
        std::this_thread::yield();
      }
    }
    for (auto& p : producers) p.join();
    // Each producer's items arrive in its push order.
    std::vector<std::uint64_t> next(kProducers, 0);
    for (const std::uint64_t x : got) {
      ASSERT_EQ(x % kEach, next[x / kEach]++) << "cap " << cap;
    }
    std::sort(got.begin(), got.end());
    for (std::uint64_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], i);
    EXPECT_FALSE(q.try_pop(v));
  }
}

// --- LatencyHistogram ---

TEST(LatencyHistogram, ExactBelowLinearRange) {
  // Values below 32 land in exact unit buckets: percentiles are precise.
  LatencyHistogram h;
  for (std::uint64_t v = 0; v < 20; ++v) h.record(v);
  EXPECT_EQ(h.count(), 20u);
  EXPECT_EQ(h.max(), 19u);
  EXPECT_EQ(h.percentile(0.0), 0u);
  EXPECT_EQ(h.p50(), 9u);
  EXPECT_EQ(h.percentile(1.0), 19u);
}

TEST(LatencyHistogram, LogBucketsBoundRelativeError) {
  // With 32 sub-buckets per octave the bucket upper bound overestimates
  // by at most 1/32 ≈ 3.2%.
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.record(1'000'000);
  const std::uint64_t p99 = h.p99();
  EXPECT_GE(p99, 1'000'000u);
  EXPECT_LE(p99, 1'000'000u + 1'000'000u / 16);
}

TEST(LatencyHistogram, PercentilesAreMonotoneAndCappedAtMax) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 10'000; ++v) h.record(v * 100);
  std::uint64_t prev = 0;
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const std::uint64_t p = h.percentile(q);
    EXPECT_GE(p, prev);
    EXPECT_LE(p, h.max());
    prev = p;
  }
}

TEST(LatencyHistogram, EmptyHistogramIsAllZero) {
  const LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.percentile(q), 0u) << "q=" << q;
  }
  EXPECT_EQ(h.p50(), 0u);
  EXPECT_EQ(h.p99(), 0u);
}

TEST(LatencyHistogram, SingleSampleDominatesEveryPercentile) {
  LatencyHistogram h;
  h.record(12'345);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), 12'345u);
  std::uint64_t prev = 0;
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    const std::uint64_t p = h.percentile(q);
    EXPECT_GE(p, prev) << "q=" << q;
    EXPECT_LE(p, h.max()) << "q=" << q;
    EXPECT_GT(p, 0u) << "q=" << q;
    prev = p;
  }
}

TEST(LatencyHistogram, MergeWithEmptyIsIdentityBothWays) {
  LatencyHistogram full;
  for (std::uint64_t v = 1; v <= 100; ++v) full.record(v * 37);
  LatencyHistogram empty;
  full.merge(empty);  // no-op
  EXPECT_EQ(full.count(), 100u);
  LatencyHistogram target;
  target.merge(full);  // copy-into-empty
  EXPECT_EQ(target.count(), full.count());
  EXPECT_EQ(target.max(), full.max());
  for (double q : {0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(target.percentile(q), full.percentile(q)) << "q=" << q;
  }
}

TEST(LatencyHistogram, MergeMatchesCombinedRecording) {
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram both;
  for (std::uint64_t v = 0; v < 500; ++v) {
    a.record(v * 7);
    both.record(v * 7);
  }
  for (std::uint64_t v = 0; v < 300; ++v) {
    b.record(v * 1'000);
    both.record(v * 1'000);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.max(), both.max());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.percentile(q), both.percentile(q)) << "q=" << q;
  }
}

// --- CountingService ---

ServiceConfig small_config(const Network& net, std::uint32_t shards) {
  ServiceConfig cfg;
  cfg.net = &net;
  cfg.shards = shards;
  cfg.max_batch = 8;
  cfg.queue_capacity = 256;
  return cfg;
}

TEST(CountingService, ValidateRejectsBadConfigs) {
  const Network net = make_bitonic(4);
  ServiceConfig ok = small_config(net, 2);
  EXPECT_TRUE(service::validate(ok).empty());
  ServiceConfig no_net = ok;
  no_net.net = nullptr;
  EXPECT_FALSE(service::validate(no_net).empty());
  ServiceConfig zero_shards = ok;
  zero_shards.shards = 0;
  EXPECT_FALSE(service::validate(zero_shards).empty());
  ServiceConfig zero_batch = ok;
  zero_batch.max_batch = 0;
  EXPECT_FALSE(service::validate(zero_batch).empty());
}

// Submits `n` requests from `threads` closed-loop clients, each waiting
// for its completion slot, and returns every observed global value.
std::vector<std::uint64_t> drive(CountingService& svc, std::uint32_t threads,
                                 std::uint64_t n_per_thread) {
  std::vector<std::vector<std::uint64_t>> got(threads);
  std::vector<std::thread> clients;
  for (std::uint32_t t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      std::atomic<std::uint64_t> done{0};
      for (std::uint64_t i = 0; i < n_per_thread; ++i) {
        done.store(0, std::memory_order_relaxed);
        while (!svc.try_submit(t, /*arrival_ns=*/i, &done)) {
          std::this_thread::yield();
        }
        std::uint64_t v = 0;
        while ((v = done.load(std::memory_order_acquire)) == 0) {
          std::this_thread::yield();
        }
        if (v != service::kDroppedSignal) got[t].push_back(v - 1);
      }
    });
  }
  for (auto& c : clients) c.join();
  std::vector<std::uint64_t> all;
  for (const auto& g : got) all.insert(all.end(), g.begin(), g.end());
  return all;
}

TEST(CountingService, GapFreeAcrossShardsAtQuiescence) {
  const Network net = make_bitonic(8);
  for (const std::uint32_t shards : {1u, 2u, 3u}) {
    ServiceConfig cfg = small_config(net, shards);
    CountingService svc(cfg);
    svc.start();
    std::vector<std::uint64_t> values = drive(svc, 4, 300);
    svc.stop();
    // Modular counting (Lemma 3.1): with every ticket completed the
    // shard outputs interleave into a gap-free 0..M-1.
    std::sort(values.begin(), values.end());
    ASSERT_EQ(values.size(), 1200u) << "shards=" << shards;
    for (std::uint64_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(values[i], i) << "shards=" << shards;
    }
    const ServiceStats& st = svc.stats();
    EXPECT_EQ(st.submitted, 1200u);
    EXPECT_EQ(st.completed, 1200u);
    EXPECT_EQ(st.dropped, 0u);
    EXPECT_EQ(st.latency.count(), 1200u);
    EXPECT_GE(st.batches, 1u);
    EXPECT_LE(st.max_batch_seen, cfg.max_batch);
    // Shard totals partition the completions.
    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < shards; ++s) total += svc.shard_total(s);
    EXPECT_EQ(total, 1200u);
  }
}

TEST(CountingService, ShardsServeTheirResidueClass) {
  const Network net = make_bitonic(4);
  constexpr std::uint32_t kShards = 3;
  ServiceConfig cfg = small_config(net, kShards);
  cfg.record = true;
  CollectSink collect;
  CountingService svc(cfg, &collect);
  svc.start();
  drive(svc, 2, 200);
  svc.stop();
  collect.finish();
  ASSERT_EQ(collect.trace().size(), 400u);
  for (const TokenRecord& rec : collect.trace()) {
    // Global value v came from shard v mod N; the record's sink index
    // encodes the shard as sink / fan_out.
    EXPECT_EQ(rec.value % kShards, rec.sink / net.fan_out());
    EXPECT_EQ(rec.token % kShards, rec.value % kShards)
        << "ticket routes by residue";
  }
}

TEST(CountingService, RecordedStreamHonorsIssueOrderContract) {
  // StreamingConsistency enforces the sink contract (nondecreasing
  // (first_seq, last_seq, token)) and computes the consistency report
  // incrementally; attaching it live must work and report zero
  // violations once the service quiesces.
  const Network net = make_bitonic(8);
  ServiceConfig cfg = small_config(net, 2);
  cfg.record = true;
  StreamingConsistency checker;
  CountingService svc(cfg, &checker);
  svc.start();
  drive(svc, 4, 250);
  svc.stop();
  checker.finish();
  // Reaching finish() at all is the contract check: StreamingConsistency
  // throws on any out-of-order emission. The fractions themselves may be
  // nonzero (batched sharded counting is not linearizable — that is the
  // paper's point), but every record must have arrived.
  const ConsistencyReport& report = checker.report();
  EXPECT_EQ(report.total, 1000u);
  EXPECT_GE(report.f_nl, 0.0);
  EXPECT_LE(report.f_nl, 1.0);
}

TEST(CountingService, SubmitAccountingIsExact) {
  // Fire-and-forget clients with a tiny queue: some submits are rejected,
  // but submitted + rejected must equal the attempts and every accepted
  // ticket must complete (no loss, no duplication).
  const Network net = make_bitonic(4);
  ServiceConfig cfg = small_config(net, 2);
  cfg.queue_capacity = 4;
  CountingService svc(cfg);
  svc.start();
  constexpr std::uint64_t kAttempts = 5000;
  std::uint64_t accepted = 0;
  for (std::uint64_t i = 0; i < kAttempts; ++i) {
    if (svc.try_submit(0, i)) ++accepted;
  }
  svc.stop();
  const ServiceStats& st = svc.stats();
  EXPECT_EQ(st.submitted, accepted);
  EXPECT_EQ(st.submitted + st.rejected, kAttempts);
  EXPECT_EQ(st.completed, accepted);
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < svc.shards(); ++s) total += svc.shard_total(s);
  EXPECT_EQ(total, accepted);
}

TEST(CountingService, AbandonFaultSignalsDroppedToTheClient) {
  // p_thread_abandon = 1: every request is dropped before traversal; the
  // client must see kDroppedSignal (never hang) and stats must account
  // for every ticket as dropped, not completed.
  const Network net = make_bitonic(4);
  ServiceConfig cfg = small_config(net, 2);
  cfg.fault.enabled = true;
  cfg.fault.p_thread_abandon = 1.0;
  CountingService svc(cfg);
  svc.start();
  const std::vector<std::uint64_t> values = drive(svc, 2, 100);
  svc.stop();
  EXPECT_TRUE(values.empty());
  const ServiceStats& st = svc.stats();
  EXPECT_EQ(st.submitted, 200u);
  EXPECT_EQ(st.dropped, 200u);
  EXPECT_EQ(st.completed, 0u);
  EXPECT_EQ(svc.shard_total(0) + svc.shard_total(1), 0u);
}

TEST(CountingService, StopIsIdempotentAndRejectsLateSubmits) {
  const Network net = make_bitonic(4);
  ServiceConfig cfg = small_config(net, 1);
  CountingService svc(cfg);
  svc.start();
  EXPECT_TRUE(svc.try_submit(0, 0));
  svc.stop();
  svc.stop();
  EXPECT_FALSE(svc.try_submit(0, 1)) << "stopped service must not accept";
  EXPECT_EQ(svc.stats().completed, 1u);
}

// --- self-healing: crash, respawn, audit ---

TEST(CountingService, RespawnPreservesGapFreedomAcrossShards) {
  // Chaos crash after exactly 50 processed requests on shard 0; the
  // supervisor must respawn the worker and the run must still count
  // 0..M-1 gap-free — recovery is invisible to Lemma 3.1.
  const Network net = make_bitonic(8);
  for (const std::uint32_t shards : {1u, 2u, 3u}) {
    ServiceConfig cfg = small_config(net, shards);
    cfg.chaos.events.push_back(
        {.kind = fault::ChaosKind::kWorkerCrash, .shard = 0, .at_ops = 50});
    CountingService svc(cfg);
    svc.start();
    std::vector<std::uint64_t> values = drive(svc, 4, 300);
    svc.stop();
    std::sort(values.begin(), values.end());
    ASSERT_EQ(values.size(), 1200u) << "shards=" << shards;
    for (std::uint64_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(values[i], i) << "shards=" << shards;
    }
    const ServiceStats& st = svc.stats();
    EXPECT_EQ(st.crashes, 1u) << "shards=" << shards;
    EXPECT_GE(st.respawns, 1u) << "shards=" << shards;
    EXPECT_EQ(st.completed, 1200u);
    EXPECT_EQ(st.crash_lost, 0u);
    const service::ResidueAudit audit = svc.audit();
    EXPECT_TRUE(audit.ok()) << "shards=" << shards;
    EXPECT_EQ(audit.holes, 0u);
  }
}

TEST(CountingService, CrashLostTicketsAreAccountedAsHolesExactly) {
  // A crash that destroys 5 in-flight tickets leaves 5 value holes; the
  // audit must attribute every one of them (holes == accounted) and each
  // surviving shard stream must stay internally gap-free.
  const Network net = make_bitonic(8);
  ServiceConfig cfg = small_config(net, 2);
  cfg.chaos.events.push_back({.kind = fault::ChaosKind::kWorkerCrash,
                              .shard = 0, .at_ops = 20, .lose = 5});
  CountingService svc(cfg);
  svc.start();
  std::vector<std::uint64_t> values = drive(svc, 4, 200);
  svc.stop();
  EXPECT_EQ(values.size(), 800u - 5u);
  const ServiceStats& st = svc.stats();
  EXPECT_EQ(st.crashes, 1u);
  EXPECT_GE(st.respawns, 1u);
  EXPECT_EQ(st.crash_lost, 5u);
  EXPECT_EQ(st.completed, 795u);
  const service::ResidueAudit audit = svc.audit();
  EXPECT_EQ(audit.tickets, 800u);
  EXPECT_EQ(audit.holes, 5u);
  EXPECT_EQ(audit.accounted, 5u);
  EXPECT_TRUE(audit.exact);
  EXPECT_TRUE(audit.gap_free);
  // The survivors are distinct and drawn from 0..799.
  std::sort(values.begin(), values.end());
  EXPECT_TRUE(std::adjacent_find(values.begin(), values.end()) ==
              values.end());
  EXPECT_LT(values.back(), 800u);
}

TEST(CountingService, StopRacesActiveChaosCrash) {
  // The crash fires after 5 requests and then wants to consume 100 more
  // tickets than will ever arrive: stop() must interrupt the consuming
  // crash (the stopping_ escape), scavenge whatever is stranded, and
  // keep the accounting exact. Covers both the supervised path (a final
  // respawn sweep may race stop) and the unsupervised one (scavenge
  // alone must clean up).
  const Network net = make_bitonic(4);
  for (const bool supervise : {true, false}) {
    ServiceConfig cfg = small_config(net, 1);
    cfg.supervise = supervise;
    cfg.chaos.events.push_back({.kind = fault::ChaosKind::kWorkerCrash,
                                .shard = 0, .at_ops = 5, .lose = 100});
    CountingService svc(cfg);
    svc.start();
    std::uint64_t accepted = 0;
    for (std::uint64_t i = 0; i < 10; ++i) {
      if (svc.try_submit(0, i)) ++accepted;
    }
    svc.stop();  // must return: the crash's consume loop observes stop
    const ServiceStats& st = svc.stats();
    EXPECT_EQ(st.submitted, accepted) << "supervise=" << supervise;
    EXPECT_EQ(st.completed + st.crash_lost + st.abandoned, accepted)
        << "supervise=" << supervise;
    const service::ResidueAudit audit = svc.audit();
    EXPECT_TRUE(audit.exact) << "supervise=" << supervise;
    EXPECT_TRUE(audit.gap_free) << "supervise=" << supervise;
  }
}

TEST(CountingService, DeterministicFingerprintIsReproducible) {
  // Two runs with the same seed, submission schedule, and chaos plan
  // must produce byte-identical replayable stats — crashes, respawns,
  // lost tickets, per-shard completion counts and all. (The queue is
  // big enough that no submit is rejected; rejection counts depend on
  // real-time backpressure and would not replay.)
  const Network net = make_bitonic(8);
  const auto one_run = [&net]() {
    ServiceConfig cfg = small_config(net, 3);
    cfg.queue_capacity = 4096;
    cfg.seed = 42;
    cfg.chaos.events.push_back({.kind = fault::ChaosKind::kWorkerCrash,
                                .shard = 0, .at_ops = 100, .lose = 3});
    CountingService svc(cfg);
    svc.start();
    for (std::uint64_t i = 0; i < 1500; ++i) {
      while (!svc.try_submit(0, i)) std::this_thread::yield();
    }
    // Let the supervisor observe the crash before shutdown: a crash
    // landing after the final sweep is scavenged as `abandoned` (still
    // exact, but a different — schedule-dependent — fingerprint).
    while (svc.health().respawns < 1) std::this_thread::yield();
    svc.stop();
    EXPECT_TRUE(svc.audit().ok());
    return service::deterministic_fingerprint(svc.stats());
  };
  const std::string a = one_run();
  const std::string b = one_run();
  EXPECT_EQ(a, b);
  // Pinned: any change to how a count is kept shows here.
  EXPECT_EQ(a,
            "submitted=1500;rejected=0;shed=0;completed=1497;dropped=0;"
            "crash_lost=3;abandoned=0;crashes=1;respawns=1;"
            "shard_completed=[497,500,500]");
}

TEST(Supervisor, PeriodIsFastOnlyWhileSomethingNeedsWatching) {
  // supervisor_period_ns is the supervisor's whole timing rule, pure in
  // its inputs: whether the elastic controller samples, and the stalest
  // heartbeat age the sweep saw. No queue depth enters it, so a stall
  // that begins on an empty queue turns the fast period on by age alone.
  using service::kSupervisorIdleNs;
  using service::kSupervisorPollNs;
  using service::kSuspectAgeNs;
  using service::kWedgeTimeoutNs;
  using service::supervisor_period_ns;
  EXPECT_EQ(kSupervisorIdleNs, kWedgeTimeoutNs / 2);
  EXPECT_EQ(kSupervisorPollNs, 50'000u);
  EXPECT_EQ(supervisor_period_ns(false, 0), kSupervisorIdleNs);
  EXPECT_EQ(supervisor_period_ns(false, kSuspectAgeNs), kSupervisorIdleNs);
  EXPECT_EQ(supervisor_period_ns(false, kSuspectAgeNs + 1), kSupervisorPollNs);
  EXPECT_EQ(supervisor_period_ns(false, ~std::uint64_t{0}), kSupervisorPollNs)
      << "a skipped sweep assumes the stalest heartbeat";
  // The controller counts breach_polls in samples at the fast period.
  EXPECT_EQ(supervisor_period_ns(true, 0), kSupervisorPollNs);
  EXPECT_EQ(supervisor_period_ns(true, kWedgeTimeoutNs), kSupervisorPollNs);
  // A stall turns suspect within one idle period of kSuspectAgeNs, and
  // the fast poll then times the wedge threshold.
  EXPECT_LT(kSuspectAgeNs + kSupervisorIdleNs + kSupervisorPollNs,
            kWedgeTimeoutNs);
}

TEST(Supervisor, StallWindowPastTheTimeoutIsDetectedAsAWedge) {
  // Three 8 ms stalled batches on one shard with work queued: each
  // outlasts kWedgeTimeoutNs (the worker beats before each batch), so
  // the supervisor must count at least one wedge.
  const Network net = make_bitonic(4);
  ServiceConfig cfg = small_config(net, 1);
  cfg.max_batch = 1;
  cfg.chaos.events.push_back({.kind = fault::ChaosKind::kStallWindow,
                              .shard = 0,
                              .at_ops = 0,
                              .duration_ops = 3,
                              .stall_ns = 8'000'000});
  CountingService svc(cfg);
  svc.start();
  constexpr std::uint32_t kRequests = 8;
  std::atomic<std::uint64_t> done[kRequests] = {};
  for (std::uint32_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(svc.try_submit(0, i, &done[i]));
  }
  for (std::uint32_t i = 0; i < kRequests; ++i) {
    EXPECT_NE(service::wait_done(done[i], 0, service::SubmitPolicy{},
                                 &svc.completion_event()),
              0u);
  }
  EXPECT_GE(svc.stats().wedge_detections, 1u);
  svc.stop();
  EXPECT_EQ(svc.stats().completed, kRequests);
  EXPECT_TRUE(svc.audit().ok());
}

TEST(Supervisor, WorkArrivingMidStallIsDetectedAsAWedge) {
  // Each 7 ms stall here begins on an EMPTY queue — at start, or right
  // after the previous request completes — and its one request arrives
  // 5.2 ms in, when the heartbeat is already past kWedgeTimeoutNs, so
  // the wedge lasts about 1.8 ms. A host that delays the client or the
  // worker by milliseconds can make a request land just as its stall
  // ends, with no wedge, so the four rounds must count one between them.
  constexpr std::uint32_t kRounds = 4;
  constexpr auto kArrival = std::chrono::microseconds(5'200);
  const Network net = make_bitonic(4);
  ServiceConfig cfg = small_config(net, 1);
  for (std::uint32_t r = 0; r < kRounds; ++r) {
    cfg.chaos.events.push_back({.kind = fault::ChaosKind::kStallWindow,
                                .shard = 0,
                                .at_ops = r,
                                .duration_ops = 1,
                                .stall_ns = 7'000'000});
  }
  CountingService svc(cfg);
  auto stall_began = std::chrono::steady_clock::now();
  svc.start();
  std::atomic<std::uint64_t> done[kRounds] = {};
  for (std::uint32_t r = 0; r < kRounds; ++r) {
    std::this_thread::sleep_until(stall_began + kArrival);
    ASSERT_TRUE(svc.try_submit(0, r, &done[r]));
    EXPECT_NE(service::wait_done(done[r], 0, service::SubmitPolicy{},
                                 &svc.completion_event()),
              0u);
    // The worker began the next stall as it completed this request.
    stall_began = std::chrono::steady_clock::now();
  }
  EXPECT_GE(svc.stats().wedge_detections, 1u);
  svc.stop();
  EXPECT_EQ(svc.stats().completed, kRounds);
  EXPECT_TRUE(svc.audit().ok());
}

TEST(Supervisor, IdleServiceSweepsAtTheSlowPeriod) {
  // An idle, supervised, non-elastic service has nothing to watch: its
  // workers beat at least once per 200 µs park, and the supervisor
  // sweeps every kSupervisorIdleNs (about 40 in 100 ms; a flat 50 µs
  // poll sweeps about 950). The bound is five times the idle rate over
  // the window as measured, so a window the host stretches cannot fail
  // it.
  const Network net = make_bitonic(8);
  CountingService svc(small_config(net, 2));
  svc.start();
  while (svc.health().supervisor_sweeps == 0) std::this_thread::yield();
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t before = svc.health().supervisor_sweeps;
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::uint64_t sweeps = svc.health().supervisor_sweeps - before;
  const auto elapsed_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  EXPECT_LE(sweeps, 2 + elapsed_ns / (service::kSupervisorIdleNs / 5))
      << "over " << elapsed_ns << " ns";
  svc.stop();
}

TEST(CountingService, IdleWorkersParkAtMostOncePerBackstop) {
  // A worker parks once its queue has been empty for kIdlePollNs, and with
  // no request to wake it each park lasts its kIdleParkNs backstop. So over
  // a window each idle worker parks at least once, and at most once per
  // backstop plus the parks in progress at its two ends.
  const Network net = make_bitonic(8);
  CountingService svc(small_config(net, 2));
  svc.start();
  const auto parks = [&svc] {
    std::vector<std::uint64_t> per_shard;
    for (const service::ShardHealth& sh : svc.health().shards) {
      per_shard.push_back(sh.parks);
    }
    return per_shard;
  };
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<std::uint64_t> before = parks();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::vector<std::uint64_t> after = parks();
  const auto elapsed_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  ASSERT_EQ(before.size(), 2u);
  ASSERT_EQ(after.size(), 2u);
  for (std::size_t s = 0; s < 2; ++s) {
    const std::uint64_t taken = after[s] - before[s];
    EXPECT_GE(taken, 1u) << "shard " << s;
    EXPECT_LE(taken, elapsed_ns / service::kIdleParkNs + 2)
        << "shard " << s << " over " << elapsed_ns << " ns";
  }
  svc.stop();
  // The ledger sums the shards' parks.
  const std::vector<std::uint64_t> final_parks = parks();
  EXPECT_EQ(svc.stats().parks, final_parks[0] + final_parks[1]);
}

TEST(ChaosPlan, RandomScheduleIsSeedDeterministic) {
  fault::ChaosMix mix;
  mix.crashes = 2;
  mix.stall_windows = 2;
  mix.bursts = 1;
  const fault::ChaosPlan a = fault::ChaosPlan::random(7, 4, 10'000, mix);
  const fault::ChaosPlan b = fault::ChaosPlan::random(7, 4, 10'000, mix);
  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_TRUE(a.enabled());
  const fault::ChaosPlan c = fault::ChaosPlan::random(8, 4, 10'000, mix);
  EXPECT_NE(a.describe(), c.describe());
  // Worker-side events are partitioned by shard; arrival events are not
  // bound to any shard.
  std::size_t worker_events = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (const fault::ChaosEvent& e : a.for_shard(s)) {
      EXPECT_EQ(e.shard, s);
      ++worker_events;
    }
  }
  EXPECT_EQ(worker_events, 4u);  // 2 crashes + 2 stall windows
  EXPECT_EQ(a.arrival_events().size(), 1u);
}

// --- admission control ---

TEST(CountingService, WatermarksShedBeforeQueueSaturates) {
  // A deliberately slow worker (100 us injected stall per request)
  // against back-to-back submits: the admission gate must start
  // shedding at the high watermark, so sheds appear while outright
  // queue-full rejections stay rare or zero — and a shed burns no
  // ticket, so the audit stays exact.
  const Network net = make_bitonic(4);
  ServiceConfig cfg = small_config(net, 1);
  cfg.queue_capacity = 64;
  cfg.shed_high_watermark = 0.5;
  cfg.shed_low_watermark = 0.25;
  cfg.fault.enabled = true;
  cfg.fault.p_thread_stall = 1.0;
  cfg.fault.stall_ns = 100'000;
  CountingService svc(cfg);
  svc.start();
  constexpr std::uint64_t kAttempts = 2000;
  std::uint64_t refused = 0;
  for (std::uint64_t i = 0; i < kAttempts; ++i) {
    if (!svc.try_submit(0, i)) ++refused;
  }
  svc.stop();
  const ServiceStats& st = svc.stats();
  EXPECT_GT(st.shed, 0u) << "watermark gate never engaged";
  EXPECT_EQ(st.submitted + st.rejected + st.shed, kAttempts);
  EXPECT_EQ(st.rejected + st.shed, refused);
  EXPECT_EQ(st.completed, st.submitted) << "accepted tickets all complete";
  EXPECT_TRUE(svc.audit().ok());
  // The health snapshot stays coherent at quiescence.
  const service::ServiceHealth h = svc.health();
  EXPECT_EQ(h.shed, st.shed);
  ASSERT_EQ(h.shards.size(), 1u);
  EXPECT_EQ(h.shards[0].queue_depth, 0u);
}

TEST(CountingService, ValidateRejectsBadWatermarksAndChaos) {
  const Network net = make_bitonic(4);
  ServiceConfig bad_marks = small_config(net, 2);
  bad_marks.shed_high_watermark = 0.4;
  bad_marks.shed_low_watermark = 0.6;  // low > high
  EXPECT_FALSE(service::validate(bad_marks).empty());
  ServiceConfig bad_chaos = small_config(net, 2);
  fault::ChaosEvent e;
  e.kind = fault::ChaosKind::kWorkerCrash;
  e.shard = 9;  // out of range
  e.at_ops = 10;
  bad_chaos.chaos.events.push_back(e);
  EXPECT_FALSE(service::validate(bad_chaos).empty());
}

// --- resilient clients ---

TEST(SubmitPolicy, BackoffScheduleIsSeedDeterministic) {
  // Attempt k sleeps in [b / 2, b] for b = min(base << k, max); attempt
  // 70 is past every shift, where the doubling must not wrap.
  Xoshiro256 a(99), b(99), c(100);
  bool any_diff = false;
  for (const std::uint32_t attempt : {0u, 1u, 3u, 8u, 9u, 10u, 11u, 70u}) {
    const std::uint64_t va = service::backoff_ns(attempt, a);
    const std::uint64_t vb = service::backoff_ns(attempt, b);
    const std::uint64_t vc = service::backoff_ns(attempt, c);
    EXPECT_EQ(va, vb) << "attempt=" << attempt;
    const std::uint64_t cap =
        std::min(service::kBackoffBaseNs << std::min(attempt, 20u),
                 service::kBackoffMaxNs);
    EXPECT_LE(va, cap) << "attempt=" << attempt;
    EXPECT_GE(va, cap / 2) << "attempt=" << attempt;
    any_diff = any_diff || (va != vc);
  }
  EXPECT_TRUE(any_diff) << "different seeds should jitter differently";
}

std::uint64_t test_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

TEST(SubmitPolicy, WaitStepScheduleIsPureAndPolicyShaped) {
  // wait_step_ns is the whole post-spin wait schedule: `yield_limit`
  // rounds of 0 (yield), then `park_ns` forever after. Pure in
  // (policy, round) — the schedule pins down without touching a clock.
  service::SubmitPolicy p;
  p.yield_limit = 3;
  p.park_ns = 10'000;
  EXPECT_EQ(service::wait_step_ns(p, 0), 0u);
  EXPECT_EQ(service::wait_step_ns(p, 2), 0u);
  EXPECT_EQ(service::wait_step_ns(p, 3), 10'000u);
  EXPECT_EQ(service::wait_step_ns(p, 1ull << 40), 10'000u);
  p.yield_limit = 0;  // No yield gear: the first post-spin round parks.
  EXPECT_EQ(service::wait_step_ns(p, 0), 10'000u);
  p.park_ns = 123;
  EXPECT_EQ(service::wait_step_ns(p, 99), 123u);
}

TEST(SubmitPolicy, SpinRunsUnlessTheThreadHasOneCpu) {
  // spin_can_pay is the whole spin decision, pure in the CPU count of the
  // thread's affinity mask: one CPU skips the spin, anything else
  // (including an unreadable mask, 0) spins as before.
  EXPECT_FALSE(service::spin_can_pay(1));
  EXPECT_TRUE(service::spin_can_pay(2));
  EXPECT_TRUE(service::spin_can_pay(64));
  EXPECT_TRUE(service::spin_can_pay(0));
  cpu_set_t mask;
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  EXPECT_EQ(service::thread_cpus(),
            static_cast<std::uint32_t>(CPU_COUNT(&mask)));
  // A thread pinned to one CPU (as perfbench pins every service thread
  // and client) reads one.
  std::thread([&mask] {
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask)) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    EXPECT_EQ(service::thread_cpus(), 1u);
  }).join();
}

TEST(SubmitPolicy, WaitDoneHonorsDeadline) {
  service::SubmitPolicy policy;
  policy.spin_limit = 64;
  policy.yield_limit = 8;
  policy.park_ns = 100'000;  // 100 us parks against a 2 ms deadline.
  std::atomic<std::uint64_t> never{0};
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t deadline = test_now_ns() + 2'000'000;  // 2 ms
  EXPECT_EQ(service::wait_done(never, deadline, policy), 0u);
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(waited)
                .count(),
            500)
      << "timeout wait must be bounded";
  std::atomic<std::uint64_t> ready{7};
  EXPECT_EQ(service::wait_done(ready, deadline, policy), 7u);
  // The eventcount gear obeys the same deadline with no notifier in
  // sight: the timed futex wait is the bound, not a wake.
  EventCount ec;
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t d1 = test_now_ns() + 2'000'000;
  EXPECT_EQ(service::wait_done(never, d1, policy, &ec), 0u);
  const auto parked = std::chrono::steady_clock::now() - t1;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(parked)
                .count(),
            500);
  EXPECT_FALSE(ec.has_waiters()) << "wait_done must deregister";
}

// --- EventCount (futex park/unpark) ---

TEST(EventCount, StaleKeyReturnsWithoutSleeping) {
  EventCount ec;
  const std::uint32_t key = ec.prepare_wait();
  EXPECT_TRUE(ec.has_waiters());
  ec.notify_all();  // The epoch moves past `key` while we are registered.
  EXPECT_TRUE(ec.commit_wait(key)) << "stale key must not park";
  EXPECT_FALSE(ec.has_waiters());
}

TEST(EventCount, CancelDeregistersAndIdleNotifyIsFree) {
  EventCount ec;
  (void)ec.prepare_wait();
  EXPECT_TRUE(ec.has_waiters());
  ec.cancel_wait();
  EXPECT_FALSE(ec.has_waiters());
  ec.notify_if_waiters();  // Nobody registered: no RMW, no wake, no harm.
  ec.notify_all();
  EXPECT_FALSE(ec.has_waiters());
}

TEST(EventCount, TimedParkExpiresWithoutANotifier) {
  EventCount ec;
  const std::uint64_t now = test_now_ns();
  // Already-past deadline: fails without parking at all.
  const std::uint32_t k0 = ec.prepare_wait();
  EXPECT_FALSE(ec.commit_wait(k0, now - 1, now));
  EXPECT_FALSE(ec.has_waiters());
  // Future deadline, no notify: the timed park is the only exit.
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint32_t k1 = ec.prepare_wait();
  EXPECT_FALSE(ec.commit_wait(k1, test_now_ns() + 2'000'000));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(waited)
                .count(),
            1'000)
      << "a timed park must actually wait out its deadline";
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(waited)
                .count(),
            500);
  EXPECT_FALSE(ec.has_waiters());
}

TEST(EventCount, NotifyAllWakesEveryParkedWaiterEachRound) {
  // The no-missed-wake property under real contention: four waiters
  // follow the prepare/check/commit protocol against an advancing
  // counter with UNTIMED parks — only notifies can wake them, so a
  // single missed wake hangs the test. The notifier advances as fast as
  // it can; TSan vets the happens-before edges through the state word.
  EventCount ec;
  std::atomic<std::uint64_t> value{0};
  constexpr std::uint64_t kRounds = 400;
  constexpr std::uint32_t kWaiters = 4;
  std::atomic<std::uint32_t> finished{0};
  std::vector<std::thread> waiters;
  for (std::uint32_t w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&] {
      std::uint64_t last = 0;
      while (last < kRounds) {
        const std::uint32_t key = ec.prepare_wait();
        const std::uint64_t v = value.load(std::memory_order_acquire);
        if (v > last) {
          ec.cancel_wait();
          last = v;
          continue;
        }
        ec.commit_wait(key);
        last = std::max(last, value.load(std::memory_order_acquire));
      }
      finished.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (std::uint64_t r = 1; r <= kRounds; ++r) {
    value.store(r, std::memory_order_release);
    ec.notify_all();
  }
  for (auto& t : waiters) t.join();
  EXPECT_EQ(finished.load(std::memory_order_relaxed), kWaiters);
  EXPECT_FALSE(ec.has_waiters());
}

TEST(EventCount, ProducerConsumerWithTimedBackstopLosesNothing) {
  // The service's idle-worker shape: the producer uses the zero-RMW
  // notify_if_waiters, whose skipped wake re-opens a store-buffer
  // window, so the consumer's park carries the timed backstop that
  // bounds it. Every produced item must be consumed regardless.
  EventCount ec;
  std::atomic<std::uint64_t> produced{0};
  constexpr std::uint64_t kItems = 20'000;
  std::atomic<std::uint64_t> consumed{0};
  std::thread consumer([&] {
    std::uint64_t done = 0;
    while (done < kItems) {
      if (done < produced.load(std::memory_order_acquire)) {
        ++done;
        continue;
      }
      const std::uint32_t key = ec.prepare_wait();
      if (done < produced.load(std::memory_order_acquire)) {
        ec.cancel_wait();
        continue;
      }
      ec.commit_wait(key, test_now_ns() + 200'000);
    }
    consumed.store(done, std::memory_order_release);
  });
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      produced.fetch_add(1, std::memory_order_release);
      ec.notify_if_waiters();
    }
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(consumed.load(std::memory_order_acquire), kItems);
  EXPECT_FALSE(ec.has_waiters());
}

TEST(EventCount, StopRacingParkedWaitersAllWake) {
  // Shutdown shape: eight waiters park (timed backstop) on a flag the
  // stopper sets exactly once, racing their registrations. Every waiter
  // must observe the flag and exit; the stopper's notify_all plus the
  // backstop make the exit prompt no matter how the race lands.
  EventCount ec;
  std::atomic<bool> stopped{false};
  std::vector<std::thread> waiters;
  for (int w = 0; w < 8; ++w) {
    waiters.emplace_back([&] {
      while (!stopped.load(std::memory_order_acquire)) {
        const std::uint32_t key = ec.prepare_wait();
        if (stopped.load(std::memory_order_acquire)) {
          ec.cancel_wait();
          break;
        }
        ec.commit_wait(key, test_now_ns() + 1'000'000);
      }
    });
  }
  stopped.store(true, std::memory_order_release);
  ec.notify_all();
  for (auto& t : waiters) t.join();
  EXPECT_FALSE(ec.has_waiters());
}

TEST(PolicyClient, DeadlineExpiresAgainstDeadShardWithoutHanging) {
  // Single unsupervised shard that crashes after 3 requests: later
  // requests sit on a dead queue forever. The deadline client must come
  // back with kTimedOut, and stop()'s scavenge must resolve the orphan
  // slots so the accounting closes (abandoned picks up the stragglers).
  // A batch against the dead shard times out element by element, and
  // the service counts those requests exactly as the client does.
  const Network net = make_bitonic(4);
  ServiceConfig cfg = small_config(net, 1);
  cfg.supervise = false;
  cfg.chaos.events.push_back(
      {.kind = fault::ChaosKind::kWorkerCrash, .shard = 0, .at_ops = 3});
  CountingService svc(cfg);
  svc.start();
  service::SubmitPolicy policy;
  policy.max_retries = 2;
  policy.deadline_ns = 5'000'000;  // 5 ms
  service::PolicyClient client(svc, policy, /*id=*/1, /*seed=*/11);
  std::uint64_t completed = 0, timed_out = 0;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const service::SubmitReport r = client.submit(i);
    if (r.status == service::SubmitStatus::kCompleted) ++completed;
    if (r.status == service::SubmitStatus::kTimedOut) ++timed_out;
  }
  const service::BatchReport batch = client.submit_batch(8, 4);
  EXPECT_EQ(batch.timed_out, 4u);
  svc.stop();
  EXPECT_EQ(completed, 3u);
  EXPECT_GE(timed_out, 1u);
  EXPECT_EQ(client.stats().completed, completed);
  EXPECT_EQ(client.stats().timed_out, timed_out + batch.timed_out);
  const ServiceStats& st = svc.stats();
  EXPECT_EQ(st.timed_out, client.stats().timed_out);
  EXPECT_EQ(st.crashes, 1u);
  EXPECT_EQ(st.respawns, 0u) << "unsupervised: no respawn";
  EXPECT_EQ(st.completed + st.abandoned, st.submitted);
  EXPECT_TRUE(svc.audit().exact);
}

TEST(PolicyClient, RetriesExhaustAgainstFullQueueAsRejected) {
  // A stopped-up service (no start(): nothing drains) with a tiny queue:
  // after it fills, a bounded-retry client must return kRejected after
  // exactly max_retries re-submissions, not loop forever.
  const Network net = make_bitonic(4);
  ServiceConfig cfg = small_config(net, 1);
  cfg.queue_capacity = 2;
  CountingService svc(cfg);
  svc.start();
  svc.stop();  // a stopped service refuses every submit — the same
               // bounded-retry exit path as a permanently full queue
  service::SubmitPolicy policy;
  policy.max_retries = 3;
  service::PolicyClient client(svc, policy, 1, 5);
  const service::SubmitReport r = client.submit(0);
  EXPECT_EQ(r.status, service::SubmitStatus::kRejected);
  EXPECT_EQ(r.retries, 3u);
  EXPECT_EQ(client.stats().rejected, 1u);
  EXPECT_EQ(client.stats().retries, 3u);
}

// --- batched ingress (submit_batch) ---

TEST(CountingService, BatchedIngressIsGapFreeAcrossShards) {
  // Half the load as singles, half as 8-element batches, concurrently:
  // the union must still tile 0..M-1 (Lemma 3.1 splits the contiguous
  // ticket range residue-exactly), the audit must stay exact, and the
  // ingress counters must show the cell compression — at most
  // min(batch, shards) queue cells per batch.
  const Network net = make_bitonic(8);
  for (const std::uint32_t shards : {1u, 2u, 3u}) {
    ServiceConfig cfg = small_config(net, shards);
    cfg.queue_capacity = 1024;
    CountingService svc(cfg);
    svc.start();
    std::vector<std::uint64_t> values;
    std::thread single_side([&] {
      const std::vector<std::uint64_t> v = drive(svc, 2, 200);
      values.insert(values.end(), v.begin(), v.end());  // joined below
    });
    constexpr std::uint32_t kBatches = 50;
    constexpr std::uint32_t kBatch = 8;
    std::vector<std::uint64_t> batch_values[2];
    std::vector<std::thread> batchers;
    for (std::uint32_t k = 0; k < 2; ++k) {
      batchers.emplace_back([&, k] {
        service::SubmitPolicy policy;
        service::PolicyClient client(svc, policy, 10 + k, 7 + k);
        for (std::uint32_t b = 0; b < kBatches; ++b) {
          const service::BatchReport rep = client.submit_batch(b, kBatch);
          EXPECT_EQ(rep.completed, kBatch) << "shards=" << shards;
          for (const std::uint64_t v : rep.values) {
            batch_values[k].push_back(v);
          }
        }
      });
    }
    single_side.join();
    for (auto& t : batchers) t.join();
    svc.stop();
    for (const auto& bv : batch_values) {
      values.insert(values.end(), bv.begin(), bv.end());
    }
    std::sort(values.begin(), values.end());
    ASSERT_EQ(values.size(), 1200u) << "shards=" << shards;
    for (std::uint64_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(values[i], i) << "shards=" << shards;
    }
    const ServiceStats& st = svc.stats();
    EXPECT_EQ(st.completed, 1200u);
    EXPECT_EQ(st.ingress_batches, 2u * kBatches);
    EXPECT_EQ(st.ingress_cells, 2u * kBatches * std::min(kBatch, shards));
    EXPECT_TRUE(svc.audit().ok()) << "shards=" << shards;
  }
}

TEST(CountingService, BatchRejectionResolvesSlotsBeforeReturning) {
  // A full queue refuses a batch's run AT SUBMIT: the refused slots are
  // stored kRejectedSignal before submit_batch returns (a batch client
  // never waits on a refused run) and the burned tickets are accounted
  // holes, so the audit stays exact through the overload.
  const Network net = make_bitonic(4);
  ServiceConfig cfg = small_config(net, 1);
  cfg.queue_capacity = 4;
  cfg.fault.enabled = true;
  cfg.fault.p_thread_stall = 1.0;
  cfg.fault.stall_ns = 200'000;  // Slow worker: the queue backs up.
  CountingService svc(cfg);
  svc.start();
  constexpr std::uint32_t kBatch = 4;
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>[]>> leases;
  std::uint64_t accepted = 0, rejected = 0, rejected_batches = 0;
  for (std::uint64_t i = 0; i < 200 && rejected_batches == 0; ++i) {
    auto slots = std::make_unique<std::atomic<std::uint64_t>[]>(kBatch);
    const CountingService::BatchResult res =
        svc.submit_batch(0, i, slots.get(), kBatch);
    accepted += res.accepted;
    rejected += res.rejected;
    if (res.rejected == kBatch) {
      ++rejected_batches;
      for (std::uint32_t j = 0; j < kBatch; ++j) {
        EXPECT_EQ(slots[j].load(std::memory_order_acquire),
                  service::kRejectedSignal)
            << "refused run's slots must resolve before submit returns";
      }
    }
    leases.push_back(std::move(slots));
  }
  EXPECT_GE(rejected_batches, 1u) << "tiny queue never filled";
  svc.stop();
  const ServiceStats& st = svc.stats();
  EXPECT_EQ(st.completed, accepted);
  EXPECT_EQ(st.rejected, rejected);
  EXPECT_TRUE(svc.audit().exact);
  // Every slot — accepted or refused — resolved by quiescence.
  for (const auto& lease : leases) {
    for (std::uint32_t j = 0; j < kBatch; ++j) {
      EXPECT_NE(lease[j].load(std::memory_order_acquire), 0u);
    }
  }
}

TEST(CountingService, BatchedRecordedStreamMatchesSingles) {
  // One shard, one closed-loop client, max_batch = 1: the worker serves
  // tickets strictly one at a time, so values follow ticket order in
  // both ingress modes (a wider worker batch would let the network
  // permute values WITHIN the batch — real, wanted concurrency, but
  // schedule-shaped) and the streaming consistency report must be
  // identical — same total, zero violations. max_batch = 1 also drags
  // every 5-element cell through the worker's carry, one element per
  // drain iteration.
  const Network net = make_bitonic(8);
  const auto run = [&net](bool batched) {
    ServiceConfig cfg = small_config(net, 1);
    cfg.max_batch = 1;
    cfg.record = true;
    StreamingConsistency checker;
    CountingService svc(cfg, &checker);
    svc.start();
    service::SubmitPolicy policy;
    service::PolicyClient client(svc, policy, 0, 3);
    std::uint64_t completed = 0;
    if (batched) {
      for (std::uint64_t b = 0; b < 60; ++b) {
        completed += client.submit_batch(b, 5).completed;
      }
    } else {
      for (std::uint64_t i = 0; i < 300; ++i) {
        if (client.submit(i).status == service::SubmitStatus::kCompleted) {
          ++completed;
        }
      }
    }
    svc.stop();
    checker.finish();
    EXPECT_EQ(completed, 300u);
    return checker.report();
  };
  const ConsistencyReport single = run(false);
  const ConsistencyReport batched = run(true);
  EXPECT_EQ(single.total, 300u);
  EXPECT_EQ(batched.total, single.total);
  EXPECT_DOUBLE_EQ(single.f_nl, batched.f_nl);
  EXPECT_DOUBLE_EQ(single.f_nsc, batched.f_nsc);
  EXPECT_DOUBLE_EQ(single.f_nl, 0.0) << "one shard, one client: sequential";
}

// The (token, value, sink, source) rows a recorded service emits for
// `total` requests from one closed-loop client, sent as singles (batch
// 1) or as submit_batch(batch) calls; sorted by token.
using RecordRow =
    std::tuple<TokenId, Value, std::uint32_t, std::uint32_t>;

std::vector<RecordRow> recorded_rows(ServiceConfig cfg, std::uint32_t batch,
                                     std::uint32_t total) {
  cfg.record = true;
  CollectSink collect;
  CountingService svc(cfg, &collect);
  svc.start();
  service::SubmitPolicy policy;
  service::PolicyClient client(svc, policy, 0, 3);
  for (std::uint32_t sent = 0; sent < total; sent += batch) {
    if (batch == 1) {
      EXPECT_EQ(client.submit(sent).status, service::SubmitStatus::kCompleted);
    } else {
      EXPECT_EQ(client.submit_batch(sent, batch).completed, batch);
    }
  }
  svc.stop();
  collect.finish();
  std::vector<RecordRow> rows;
  for (const TokenRecord& r : collect.trace()) {
    rows.emplace_back(r.token, r.value, r.sink, r.source);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(CountingService, RecordedRowsIgnoreBatchShape) {
  // One client on 3 shards with room for 32-request worker batches:
  // singles drain one request per batch, submit_batch(5) hands a shard 1
  // or 2 requests per batch. The rows must not notice. Each batch gets
  // the shard's next values ascending, first-in first-out, and a
  // shard's j-th token enters on its feed's j-th wire whichever batch
  // it rides in.
  const Network net = make_bitonic(8);
  ServiceConfig cfg = small_config(net, 3);
  cfg.max_batch = 32;
  const std::vector<RecordRow> singles = recorded_rows(cfg, 1, 600);
  ASSERT_EQ(singles.size(), 600u);
  EXPECT_EQ(singles, recorded_rows(cfg, 5, 600));
}

TEST(CountingService, FingerprintIdenticalAcrossIngressModes) {
  // Zero-fault classic path, one deterministic submitter: the replayable
  // fingerprint must be byte-identical whether the same 1200 tickets
  // arrive as singles or as 4-element batches — ingress batching is
  // invisible to the accounting.
  const Network net = make_bitonic(8);
  const auto run = [&net](std::uint32_t batch) {
    ServiceConfig cfg = small_config(net, 3);
    cfg.queue_capacity = 4096;
    cfg.seed = 9;
    CountingService svc(cfg);
    svc.start();
    for (std::uint64_t i = 0; i < 1200 / batch; ++i) {
      if (batch == 1) {
        while (!svc.try_submit(0, i)) std::this_thread::yield();
      } else {
        while (!svc.submit_batch(0, i, nullptr, batch).admitted()) {
          std::this_thread::yield();
        }
      }
    }
    svc.stop();
    EXPECT_TRUE(svc.audit().ok());
    EXPECT_EQ(svc.stats().completed, 1200u);
    return service::deterministic_fingerprint(svc.stats());
  };
  const std::string singles = run(1);
  EXPECT_EQ(singles, run(4));
  EXPECT_EQ(singles,
            "submitted=1200;rejected=0;shed=0;completed=1200;dropped=0;"
            "crash_lost=0;abandoned=0;crashes=0;respawns=0;"
            "shard_completed=[400,400,400]");
}

TEST(PolicyClient, StopScavengeWakesParkedBatchClients) {
  // Unsupervised crash strands a batch mid-run; the client has NO
  // deadline and parks on the completion eventcount in 10 ms gears.
  // stop()'s element-wise scavenge must resolve every stranded slot
  // (drop signal) and its notify must wake the parked waits — nobody
  // hangs on a dead shard, and the element accounting is exact.
  const Network net = make_bitonic(4);
  ServiceConfig cfg = small_config(net, 1);
  cfg.supervise = false;
  cfg.chaos.events.push_back(
      {.kind = fault::ChaosKind::kWorkerCrash, .shard = 0, .at_ops = 2, .lose = 1});
  CountingService svc(cfg);
  svc.start();
  service::SubmitPolicy policy;
  policy.spin_limit = 32;
  policy.yield_limit = 4;
  policy.park_ns = 10'000'000;
  service::BatchReport rep;
  std::thread client_thread([&] {
    service::PolicyClient client(svc, policy, 1, 13);
    rep = client.submit_batch(0, 8);
  });
  // Let the crash land (2 served, 1 consumed), then stop into the
  // parked client.
  while (svc.health().crashes < 1) std::this_thread::yield();
  svc.stop();
  client_thread.join();
  EXPECT_EQ(rep.completed, 2u);
  EXPECT_EQ(rep.dropped, 6u);  // 1 crash-consumed + 5 scavenged.
  EXPECT_EQ(rep.timed_out, 0u);
  const ServiceStats& st = svc.stats();
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.crash_lost, 1u);
  EXPECT_EQ(st.abandoned, 5u);
  EXPECT_TRUE(svc.audit().exact);
}

// --- elastic width: live split/merge resharding ---

ServiceConfig elastic_config(const Network& net, std::uint32_t max_level) {
  ServiceConfig cfg = small_config(net, /*shards=*/1);
  cfg.elastic.enabled = true;
  cfg.elastic.max_level = max_level;
  return cfg;
}

TEST(ElasticService, LevelZeroRecordsLikeAClassicShard) {
  // A classic 1-shard service is the degenerate epoch: the full network,
  // the identity feed, sink labels 0 * w + u. An elastic service pinned
  // at level 0 runs extract(0): the whole network, its identity
  // feed_order, labels embed_sink(u, 0, 0, w) = u. Same shard, same rows.
  const Network net = make_bitonic(8);
  const std::vector<RecordRow> classic =
      recorded_rows(small_config(net, 1), 5, 300);
  ASSERT_EQ(classic.size(), 300u);
  EXPECT_EQ(classic, recorded_rows(elastic_config(net, 0), 5, 300));
}

TEST(ElasticService, ValidateCertifiesSplittabilityAndRejectsChaos) {
  const Network bitonic = make_bitonic(8);
  EXPECT_TRUE(service::validate(elastic_config(bitonic, 3)).empty());
  EXPECT_TRUE(service::validate(elastic_config(bitonic, 0)).empty());
  // Beyond the split number.
  EXPECT_FALSE(service::validate(elastic_config(bitonic, 4)).empty());
  // A counting tree is not uniformly splittable at all.
  const Network tree = make_counting_tree(8);
  EXPECT_FALSE(service::validate(elastic_config(tree, 1)).empty());
  // Shard-targeted chaos cannot survive epoch boundaries.
  ServiceConfig crash = elastic_config(bitonic, 2);
  crash.chaos.events.push_back(
      {.kind = fault::ChaosKind::kWorkerCrash, .at_ops = 10});
  EXPECT_FALSE(service::validate(crash).empty());
  ServiceConfig chaos = elastic_config(bitonic, 2);
  fault::ChaosEvent e;
  e.kind = fault::ChaosKind::kStallWindow;
  e.at_ops = 10;
  e.duration_ops = 5;
  chaos.chaos.events.push_back(e);
  EXPECT_FALSE(service::validate(chaos).empty());
  // Thread faults (per-request stall/abandon) remain allowed.
  ServiceConfig faults = elastic_config(bitonic, 2);
  faults.fault.enabled = true;
  faults.fault.p_thread_abandon = 0.01;
  EXPECT_TRUE(service::validate(faults).empty());
}

TEST(ElasticService, GapFreeAcrossForcedSplitsAndMerges) {
  // Quiescent resizes through every level and back: each epoch's tickets
  // tile the global value space (Lemma 3.1 rebased per epoch), so the
  // union of all epochs' outputs must still be a gap-free 0..M-1.
  const Network net = make_bitonic(8);
  ServiceConfig cfg = elastic_config(net, 3);
  CountingService svc(cfg);
  svc.start();
  std::vector<std::uint64_t> values;
  std::uint64_t expected = 0;
  const std::uint32_t schedule[] = {1, 2, 3, 1, 0};
  for (const std::uint32_t level : schedule) {
    const std::vector<std::uint64_t> wave = drive(svc, 2, 100);
    expected += 200;
    values.insert(values.end(), wave.begin(), wave.end());
    ASSERT_TRUE(svc.resize(level).empty()) << "level=" << level;
    EXPECT_EQ(svc.current_level(), level);
    EXPECT_EQ(svc.shards(), 1u << level);
  }
  const std::vector<std::uint64_t> last = drive(svc, 2, 100);
  expected += 200;
  values.insert(values.end(), last.begin(), last.end());
  svc.stop();

  std::sort(values.begin(), values.end());
  ASSERT_EQ(values.size(), expected);
  for (std::uint64_t i = 0; i < values.size(); ++i) ASSERT_EQ(values[i], i);

  const ServiceStats& st = svc.stats();
  EXPECT_EQ(st.epochs, 6u);
  EXPECT_EQ(st.splits, 3u);  // 0->1, 1->2, (3->1 is a merge), 2->3
  EXPECT_EQ(st.merges, 2u);  // 3->1, 1->0
  EXPECT_EQ(st.final_level, 0u);
  EXPECT_TRUE(svc.audit().ok());

  const std::vector<service::EpochStats> epochs = svc.epoch_history();
  ASSERT_EQ(epochs.size(), 6u);
  std::uint64_t base = 0;
  for (const service::EpochStats& es : epochs) {
    EXPECT_TRUE(es.ok()) << "epoch " << es.index;
    EXPECT_EQ(es.base, base) << "epoch ranges must tile the ticket space";
    EXPECT_EQ(es.shards, 1u << es.level);
    EXPECT_EQ(es.completed, 200u) << "epoch " << es.index;
    EXPECT_DOUBLE_EQ(es.f_nl_bound, service::f_nl_bound(es.level));
    base += es.tickets;
  }
}

TEST(ElasticService, ResizeUnderConcurrentLoadStaysGapFree) {
  // Clients keep submitting while resizes fire: a submit hitting the
  // quiescence fence is refused (accepting_ closed) and retried, so no
  // value is lost, and every epoch must still audit exactly.
  const Network net = make_bitonic(8);
  ServiceConfig cfg = elastic_config(net, 3);
  CountingService svc(cfg);
  svc.start();
  std::atomic<bool> go{true};
  std::vector<std::vector<std::uint64_t>> got(4);
  std::vector<std::thread> clients;
  for (std::uint32_t t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      std::atomic<std::uint64_t> done{0};
      while (go.load(std::memory_order_relaxed)) {
        done.store(0, std::memory_order_relaxed);
        while (!svc.try_submit(t, 0, &done)) {
          if (!go.load(std::memory_order_relaxed)) return;
          std::this_thread::yield();
        }
        std::uint64_t v = 0;
        while ((v = done.load(std::memory_order_acquire)) == 0) {
          std::this_thread::yield();
        }
        if (v != service::kDroppedSignal) got[t].push_back(v - 1);
      }
    });
  }
  for (const std::uint32_t level : {2u, 3u, 1u, 2u, 0u}) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(svc.resize(level).empty());
  }
  go.store(false, std::memory_order_relaxed);
  for (auto& c : clients) c.join();
  svc.stop();

  std::vector<std::uint64_t> values;
  for (const auto& g : got) values.insert(values.end(), g.begin(), g.end());
  std::sort(values.begin(), values.end());
  ASSERT_EQ(values.size(), svc.stats().completed);
  for (std::uint64_t i = 0; i < values.size(); ++i) ASSERT_EQ(values[i], i);
  EXPECT_EQ(svc.stats().splits + svc.stats().merges, 5u);
  EXPECT_TRUE(svc.audit().ok());
  for (const service::EpochStats& es : svc.epoch_history()) {
    EXPECT_TRUE(es.ok()) << "epoch " << es.index;
  }
}

TEST(ElasticService, RecordsEmbedShardsIntoFullNetworkSinks) {
  // Elastic records label each completion with the TRUE full-network
  // sink of the Lemma 3.1 embedding: global value v issued in an epoch
  // based at b exits sink (v - b) mod w. The per-epoch consistency tee
  // must also report fractions in range against the Cor 5.12/5.13
  // bounds.
  const Network net = make_bitonic(8);
  ServiceConfig cfg = elastic_config(net, 2);
  cfg.record = true;
  CollectSink collect;
  CountingService svc(cfg, &collect);
  svc.start();
  for (const std::uint32_t level : {1u, 2u, 0u}) {
    drive(svc, 2, 150);
    ASSERT_TRUE(svc.resize(level).empty());
  }
  drive(svc, 2, 150);
  svc.stop();
  collect.finish();

  const std::vector<service::EpochStats> epochs = svc.epoch_history();
  ASSERT_EQ(epochs.size(), 4u);
  ASSERT_EQ(collect.trace().size(), 1200u);
  for (const TokenRecord& rec : collect.trace()) {
    // Locate the record's epoch by its ticket range.
    const service::EpochStats* home = nullptr;
    for (const service::EpochStats& es : epochs) {
      if (rec.value >= es.base && rec.value < es.base + es.tickets) home = &es;
    }
    ASSERT_NE(home, nullptr) << "value " << rec.value << " outside all epochs";
    EXPECT_EQ(rec.sink, (rec.value - home->base) % net.fan_out());
    EXPECT_EQ((rec.token - home->base) % home->shards,
              (rec.value - home->base) % home->shards)
        << "epoch-local ticket routes by residue";
  }
  for (const service::EpochStats& es : epochs) {
    EXPECT_GE(es.f_nl, 0.0) << "recording epochs must report consistency";
    EXPECT_LE(es.f_nl, 1.0);
    EXPECT_GE(es.f_nsc, 0.0);
    EXPECT_LE(es.f_nsc, 1.0);
    // Cor 5.12's bound vanishes only at level 0 (a single shard can be
    // linearizable); any real split forces a positive fraction.
    if (es.level > 0) {
      EXPECT_GT(es.f_nl_bound, 0.0);
    }
  }
}

TEST(ElasticService, ControllerSplitsUnderPressureAndMergesWhenDrained) {
  // Slow workers (1 injected stall per request) against a burst of
  // fire-and-forget submits: queue depth crosses the split watermark and
  // the controller must walk the level up; once the burst drains, the
  // merge watermark walks it back down to the floor.
  const Network net = make_bitonic(8);
  ServiceConfig cfg = elastic_config(net, 2);
  cfg.queue_capacity = 128;
  cfg.elastic.controller = true;
  cfg.elastic.split_queue_frac = 0.10;
  cfg.elastic.merge_queue_frac = 0.02;
  cfg.elastic.breach_polls = 2;
  cfg.elastic.cooldown_ns = 200'000;
  cfg.fault.enabled = true;
  cfg.fault.p_thread_stall = 1.0;
  cfg.fault.stall_ns = 100'000;
  CountingService svc(cfg);
  svc.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::uint64_t submitted = 0;
  while (svc.current_level() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    if (svc.try_submit(0, 0)) ++submitted;
  }
  ASSERT_GE(svc.current_level(), 1u) << "controller never split";
  // Stop submitting; the queues drain and the controller merges back.
  while (svc.current_level() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(svc.current_level(), 0u) << "controller never merged back";
  svc.stop();
  const ServiceStats& st = svc.stats();
  EXPECT_GE(st.splits, 1u);
  EXPECT_GE(st.merges, 1u);
  EXPECT_GT(submitted, 0u);
  EXPECT_TRUE(svc.audit().ok());
}

TEST(ElasticService, ResizeRefusalsAreReasoned) {
  const Network net = make_bitonic(8);
  // Elastic off: resize must refuse, classic behavior untouched.
  ServiceConfig classic = small_config(net, 2);
  CountingService fixed(classic);
  fixed.start();
  EXPECT_FALSE(fixed.resize(1).empty());
  fixed.stop();
  // Elastic on: out-of-range levels refuse; the current level is a no-op
  // that burns no epoch.
  ServiceConfig cfg = elastic_config(net, 2);
  CountingService svc(cfg);
  svc.start();
  EXPECT_FALSE(svc.resize(3).empty()) << "beyond max_level";
  EXPECT_TRUE(svc.resize(0).empty()) << "no-op resize to current level";
  drive(svc, 1, 50);
  svc.stop();
  EXPECT_EQ(svc.stats().epochs, 1u) << "refusals and no-ops burn no epoch";
  EXPECT_TRUE(svc.audit().ok());
}

// --- the ledger ---

/// The ledger's summed counts as one row, field by field (every field
/// but max_batch_seen, a max).
std::vector<std::uint64_t> ledger_row(const service::ServiceCounts& c) {
  return {c.submitted, c.rejected,  c.shed,       c.completed,
          c.dropped,   c.crash_lost, c.abandoned, c.crashes,
          c.respawns,  c.wedge_detections, c.batches, c.parks,
          c.ingress_batches, c.ingress_cells, c.stalls};
}

/// After stop(): stats() is the field-by-field sum of epoch_history()
/// (the largest batch a max), audit() agrees with the per-epoch audits,
/// health() reports the same counts, and splits/merges are the rises and
/// falls of the epoch levels.
void expect_reports_sum_the_epochs(const CountingService& svc) {
  const ServiceStats st = svc.stats();
  const std::vector<service::EpochStats> epochs = svc.epoch_history();
  ASSERT_FALSE(epochs.empty());
  std::vector<std::uint64_t> sum(ledger_row(st).size(), 0);
  std::uint64_t max_batch = 0;
  std::uint64_t tickets = 0, holes = 0, accounted = 0, latencies = 0;
  std::uint64_t splits = 0, merges = 0;
  bool exact = true, gap_free = true;
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    const service::EpochStats& es = epochs[i];
    const std::vector<std::uint64_t> row = ledger_row(es);
    for (std::size_t f = 0; f < row.size(); ++f) sum[f] += row[f];
    max_batch = std::max(max_batch, es.max_batch_seen);
    EXPECT_EQ(es.tickets, es.submitted + es.rejected) << "epoch " << i;
    EXPECT_TRUE(es.ok()) << "epoch " << i;
    tickets += es.tickets;
    holes += es.tickets - es.completed;
    accounted += es.rejected + es.dropped + es.crash_lost + es.abandoned;
    latencies += es.latency.count();
    exact = exact && es.audit_exact;
    gap_free = gap_free && es.gap_free;
    if (i > 0 && es.level > epochs[i - 1].level) ++splits;
    if (i > 0 && es.level < epochs[i - 1].level) ++merges;
  }
  EXPECT_EQ(ledger_row(st), sum);
  EXPECT_EQ(st.max_batch_seen, max_batch);
  EXPECT_EQ(st.epochs, epochs.size());
  EXPECT_EQ(st.final_level, epochs.back().level);
  EXPECT_EQ(st.shard_completed, epochs.back().shard_completed);
  EXPECT_EQ(st.latency.count(), latencies);
  EXPECT_EQ(st.latency.count(), st.completed);
  EXPECT_EQ(st.splits, splits);
  EXPECT_EQ(st.merges, merges);

  const service::ResidueAudit audit = svc.audit();
  EXPECT_EQ(audit.tickets, tickets);
  EXPECT_EQ(audit.completed, st.completed);
  EXPECT_EQ(audit.holes, holes);
  EXPECT_EQ(audit.accounted, accounted);
  EXPECT_EQ(audit.exact, exact);
  EXPECT_EQ(audit.gap_free, gap_free);
  EXPECT_TRUE(audit.ok());

  const service::ServiceHealth h = svc.health();
  EXPECT_EQ(ledger_row(h), ledger_row(st));
  EXPECT_EQ(h.max_batch_seen, st.max_batch_seen);
  EXPECT_EQ(h.level, st.final_level);
  EXPECT_EQ(h.epoch + 1, st.epochs);
}

TEST(CountingService, ReportsAreSumsOverTheEpochs) {
  const Network net = make_bitonic(8);
  {
    SCOPED_TRACE("classic, chaos crashes and thread faults");
    ServiceConfig cfg = small_config(net, 3);
    cfg.seed = 17;
    cfg.fault.enabled = true;
    cfg.fault.p_thread_abandon = 0.05;
    cfg.fault.p_thread_stall = 0.02;
    cfg.fault.stall_ns = 1'000;
    cfg.chaos.events.push_back({.kind = fault::ChaosKind::kWorkerCrash,
                                .shard = 0, .at_ops = 40, .lose = 2});
    cfg.chaos.events.push_back({.kind = fault::ChaosKind::kWorkerCrash,
                                .shard = 2, .at_ops = 70, .lose = 3});
    CountingService svc(cfg);
    svc.start();
    drive(svc, 2, 300);
    // Mid-run the live epoch is the history's last entry.
    EXPECT_EQ(svc.epoch_history().size(), 1u);
    svc.stop();
    const ServiceStats st = svc.stats();
    EXPECT_EQ(st.crashes, 2u);
    EXPECT_EQ(st.crash_lost, 5u);
    EXPECT_GT(st.dropped, 0u);
    EXPECT_GT(st.stalls, 0u);
    expect_reports_sum_the_epochs(svc);
  }
  {
    SCOPED_TRACE("elastic, forced resizes, batched and single ingress");
    ServiceConfig cfg = elastic_config(net, 2);
    cfg.fault.enabled = true;
    cfg.fault.p_thread_abandon = 0.02;
    CountingService svc(cfg);
    svc.start();
    for (const std::uint32_t level : {1u, 2u, 0u, 2u, 1u}) {
      drive(svc, 2, 60);
      std::atomic<std::uint64_t> slots[8] = {};
      while (!svc.submit_batch(0, 0, slots, 8).admitted()) {
        std::this_thread::yield();
      }
      ASSERT_EQ(svc.resize(level), "");
    }
    EXPECT_EQ(svc.epoch_history().size(), 6u);
    svc.stop();
    const ServiceStats st = svc.stats();
    EXPECT_EQ(st.splits, 3u);
    EXPECT_EQ(st.merges, 2u);
    EXPECT_EQ(st.ingress_batches, 5u);
    expect_reports_sum_the_epochs(svc);
  }
}

}  // namespace
}  // namespace cn
