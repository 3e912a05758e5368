// Tests for the shared-memory counting-network implementation
// (src/concurrent): gap-freedom, quiescent step property, and the
// Theorem 4.1 pacing behaviour on real threads — plus the single-writer
// BatchTraversal (src/core) the service shards run, differentially
// against the same sequential spec.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "concurrent/concurrent_network.hpp"
#include "concurrent/harness.hpp"
#include "core/batch_traversal.hpp"
#include "core/compiled.hpp"
#include "core/constructions.hpp"
#include "core/sequential.hpp"
#include "core/split.hpp"
#include "core/verify.hpp"
#include "trace/consistency.hpp"
#include "sim/timing.hpp"

namespace cn {
namespace {

TEST(ConcurrentNetwork, SingleThreadValuesAreSequential) {
  const Network topo = make_bitonic(8);
  ConcurrentNetwork net(topo);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(net.increment(static_cast<std::uint32_t>(i % 8)), i);
  }
  EXPECT_EQ(net.total(), 100u);
}

TEST(ConcurrentNetwork, ConcurrentValuesAreGapFreeAndDistinct) {
  const Network topo = make_bitonic(8);
  ConcurrentNetwork net(topo);
  constexpr std::uint32_t kThreads = 8;
  constexpr std::uint64_t kOps = 500;
  std::vector<std::vector<std::uint64_t>> got(kThreads);
  std::vector<std::thread> workers;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      got[t].reserve(kOps);
      for (std::uint64_t k = 0; k < kOps; ++k) {
        got[t].push_back(net.increment(t % topo.fan_in()));
      }
    });
  }
  for (auto& w : workers) w.join();
  std::vector<std::uint64_t> all;
  for (const auto& v : got) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), kThreads * kOps);
  for (std::uint64_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], i) << "duplicate or gap at " << i;
  }
}

TEST(ConcurrentNetwork, QuiescentStepProperty) {
  const Network topo = make_periodic(8);
  ConcurrentNetwork net(topo);
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kOps = 101;  // deliberately not a multiple of 8
  std::vector<std::thread> workers;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::uint64_t k = 0; k < kOps; ++k) net.increment(t % 8);
    });
  }
  for (auto& w : workers) w.join();
  const std::vector<std::uint64_t> counts = net.sink_counts();
  EXPECT_TRUE(has_step_property(counts));
  EXPECT_EQ(net.total(), kThreads * kOps);
}

TEST(ConcurrentNetwork, PerThreadValuesIncreaseWithoutContention) {
  // A single thread is trivially sequentially consistent.
  const Network topo = make_bitonic(4);
  ConcurrentNetwork net(topo);
  std::uint64_t prev = net.increment(0);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t v = net.increment(0);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(ConcurrentNetwork, WorksOverAnyTopology) {
  // The shared-memory implementation is topology-generic: tree (fan-in 1,
  // irregular balancers) and periodic network both count under threads.
  for (const Network* topo :
       {new Network(make_counting_tree(8)), new Network(make_periodic(8))}) {
    ConcurrentNetwork net(*topo);
    std::vector<std::thread> workers;
    std::vector<std::vector<std::uint64_t>> got(4);
    for (std::uint32_t t = 0; t < 4; ++t) {
      workers.emplace_back([&, t] {
        for (int k = 0; k < 200; ++k) {
          got[t].push_back(net.increment(t % topo->fan_in()));
        }
      });
    }
    for (auto& w : workers) w.join();
    std::vector<std::uint64_t> all;
    for (const auto& v : got) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    for (std::uint64_t i = 0; i < all.size(); ++i) {
      ASSERT_EQ(all[i], i) << topo->name();
    }
    delete topo;
  }
}

TEST(Harness, RecordedRunProducesCompleteTrace) {
  const Network topo = make_bitonic(8);
  ConcurrentNetwork net(topo);
  ConcurrentRunSpec spec;
  spec.threads = 4;
  spec.ops_per_thread = 50;
  const ConcurrentRunResult res = run_recorded(net, spec);
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_EQ(res.trace.size(), 200u);
  EXPECT_GT(res.ops_per_sec, 0.0);
  // Values form 0..n-1.
  std::vector<std::uint64_t> values;
  for (const TokenRecord& r : res.trace) values.push_back(r.value);
  std::sort(values.begin(), values.end());
  for (std::uint64_t i = 0; i < values.size(); ++i) EXPECT_EQ(values[i], i);
  // Timestamps are sane: every op finishes after it starts.
  for (const TokenRecord& r : res.trace) {
    EXPECT_LE(r.t_in, r.t_out);
    EXPECT_LE(r.first_seq, r.last_seq);
  }
}

TEST(Harness, TraceFeedsConsistencyAnalyzer) {
  const Network topo = make_bitonic(8);
  ConcurrentNetwork net(topo);
  ConcurrentRunSpec spec;
  spec.threads = 4;
  spec.ops_per_thread = 100;
  const ConcurrentRunResult res = run_recorded(net, spec);
  ASSERT_TRUE(res.ok());
  const ConsistencyReport rep = analyze(res.trace);
  EXPECT_EQ(rep.total, 400u);
  // Unpaced single-host runs are in practice sequentially consistent per
  // thread (a thread's next operation starts after its previous returns,
  // and balancer traversal is monotone under low skew) — but we only
  // assert the analyzer runs and fractions are within range.
  EXPECT_GE(rep.f_nl, rep.f_nsc);
  EXPECT_LE(rep.f_nl, 1.0);
}

TEST(Harness, LocalDelayPacingKeepsGapsAboveFloor) {
  const Network topo = make_bitonic(4);
  ConcurrentNetwork net(topo);
  ConcurrentRunSpec spec;
  spec.threads = 2;
  spec.ops_per_thread = 20;
  spec.local_delay_ns = 200'000;  // 0.2 ms between ops
  const ConcurrentRunResult res = run_recorded(net, spec);
  ASSERT_TRUE(res.ok());
  // Within each thread, consecutive operations are separated by at least
  // roughly the pacing floor.
  std::map<ProcessId, std::vector<const TokenRecord*>> per;
  for (const TokenRecord& r : res.trace) per[r.process].push_back(&r);
  for (auto& [p, recs] : per) {
    std::sort(recs.begin(), recs.end(),
              [](const TokenRecord* a, const TokenRecord* b) {
                return a->first_seq < b->first_seq;
              });
    for (std::size_t i = 1; i < recs.size(); ++i) {
      const double gap = recs[i]->t_in - recs[i - 1]->t_out;
      EXPECT_GE(gap, 0.15e-3) << "process " << p << " op " << i;
    }
  }
}

TEST(Harness, RecordedScheduleMeasuresTimingParameters) {
  const Network topo = make_bitonic(4);
  ConcurrentNetwork net(topo);
  ConcurrentRunSpec spec;
  spec.threads = 2;
  spec.ops_per_thread = 25;
  spec.hop_delay_min_ns = 30'000;
  spec.hop_delay_max_ns = 120'000;
  spec.local_delay_ns = 500'000;
  spec.record_schedule = true;
  const ConcurrentRunResult res = run_recorded(net, spec);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.schedule.plans.size(), 50u);
  ASSERT_EQ(res.schedule.times.size(), 50u * (topo.depth() + 1));
  for (std::size_t i = 0; i < res.schedule.plans.size(); ++i) {
    const std::span<const double> row = res.schedule.times_of(i);
    for (std::size_t h = 1; h < row.size(); ++h) {
      EXPECT_GE(row[h], row[h - 1]);
    }
  }
  const TimingParameters t = measure_timing(res.schedule);
  // The busy-wait enforces at least the floor per hop (scheduling noise
  // only adds delay, never removes it).
  EXPECT_GE(t.c_min, 30e-6 * 0.9);
  ASSERT_TRUE(t.C_L.has_value());
  EXPECT_GE(*t.C_L, 400e-6);
}

TEST(Harness, ScheduleAbsentWhenNotRequested) {
  const Network topo = make_bitonic(4);
  ConcurrentNetwork net(topo);
  ConcurrentRunSpec spec;
  spec.threads = 2;
  spec.ops_per_thread = 5;
  const ConcurrentRunResult res = run_recorded(net, spec);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.schedule.plans.empty());
}

TEST(Harness, ThroughputRunnerCountsAllOps) {
  std::atomic<std::uint64_t> counter{0};
  const double ops = run_throughput(4, 1000, [&](std::uint32_t) {
    return counter.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_GT(ops, 0.0);
  EXPECT_EQ(counter.load(), 4000u);
}

TEST(Harness, BatchThroughputRunnerCountsAllTokens) {
  // 1000 tokens per thread in chunks of 32 leaves a short final chunk
  // (1000 = 31*32 + 8); every token must still be delivered exactly once.
  const Network topo = make_bitonic(8);
  ConcurrentNetwork net(topo);
  const double rate = run_batch_throughput(
      4, 1000, 32, [&](std::uint32_t t, std::uint64_t* out, std::uint32_t k) {
        net.increment_batch(t % 8, k, out);
      });
  EXPECT_GT(rate, 0.0);
  EXPECT_EQ(net.total(), 4000u);
  EXPECT_TRUE(has_step_property(net.sink_counts()));
}

// --- increment_batch: differential equivalence with the sequential spec ---

// The two batched traversals under test, each built over a topology and
// handed a FED batch: token i enters on feed[(cursor + i) mod m]. The
// single-writer BatchTraversal a service shard runs (over its own
// compiled tables) takes the whole batch in one call. The shared-memory
// ConcurrentNetwork takes one input wire per call, so it gets one call
// per entry carrying that entry's balanced count.
struct ConcurrentImpl {
  static constexpr bool kAscending = false;  // depth-first order
  explicit ConcurrentImpl(const Network& topo) : net(topo) {}
  void increment_fed(std::span<const std::uint32_t> feed,
                     std::uint64_t cursor, std::uint32_t k,
                     std::uint64_t* out) {
    const auto m = static_cast<std::uint32_t>(feed.size());
    std::uint32_t off = 0;
    for (std::uint32_t u = 0; u < m && off < k; ++u) {
      const std::uint32_t c = k / m + (u < k % m ? 1 : 0);
      net.increment_batch(feed[(cursor + u) % m], c, out + off);
      off += c;
    }
  }
  ConcurrentNetwork net;
};
struct ShardImpl {
  static constexpr bool kAscending = true;
  explicit ShardImpl(const Network& topo) : compiled(topo), net(compiled) {}
  void increment_fed(std::span<const std::uint32_t> feed,
                     std::uint64_t cursor, std::uint32_t k,
                     std::uint64_t* out) {
    net.increment_batch(feed, cursor, k, out);
  }
  CompiledNetwork compiled;
  BatchTraversal net;
};

// Classic service shard s's feed: the identity order rotated by s.
std::vector<std::uint32_t> classic_feed(const Network& topo,
                                        std::uint32_t s) {
  std::vector<std::uint32_t> feed(topo.fan_in());
  for (std::uint32_t j = 0; j < feed.size(); ++j) {
    feed[j] = (s + j) % topo.fan_in();
  }
  return feed;
}

// Runs the same token sequence through a batched implementation (via
// increment_fed) and through the sequential NetworkState oracle (via
// one shepherd call per token, in feed order), then compares every
// observable: the multiset of issued values per batch, per-balancer
// traversal counts, per-sink counter totals, and the grand total.
// Equality of the balancer counts is the "byte-compatible counting"
// claim: one claim of k positions must advance each balancer exactly as
// far as k sequential tokens would.
//
// With a `feed`, batches continue one balanced cyclic feed through a
// persistent cursor, as a service shard's worker feeds them (a classic
// shard's rotated identity, or an extracted part's feed_order). Without
// one, each batch goes whole onto a one-entry feed, cycling input wires
// batch by batch.
//
// Every topology here counts under its feeding, and a single caller
// leaves the network quiescent between batches, so each batch must also
// receive exactly the next k values: T..T+k-1 after T tokens counted.
// An implementation that emits ascending values must then return, from
// its one call per batch, exactly the sequence the k sequential tokens
// get.
template <typename Impl>
void expect_batch_matches_sequential(
    const Network& topo, const std::vector<std::uint32_t>& batches,
    const std::vector<std::uint32_t>* feed = nullptr) {
  Impl impl(topo);
  NetworkState spec(topo);
  TokenId token = 0;
  std::uint64_t counted = 0;
  std::uint32_t next_source = 0;
  std::uint64_t cursor = 0;
  for (const std::uint32_t k : batches) {
    std::uint32_t wire = 0;
    std::span<const std::uint32_t> fed(&wire, 1);
    if (feed != nullptr) {
      fed = *feed;
    } else {
      wire = next_source++ % topo.fan_in();
    }
    const auto m = static_cast<std::uint32_t>(fed.size());
    std::vector<std::uint64_t> got(k);
    impl.increment_fed(fed, cursor, k, got.data());
    std::vector<std::uint64_t> expect;
    expect.reserve(k);
    for (std::uint32_t i = 0; i < k; ++i) {
      expect.push_back(spec.shepherd(token++, 0, fed[(cursor + i) % m]));
    }
    cursor = (cursor + k) % m;
    if (Impl::kAscending) {
      ASSERT_EQ(got, expect) << topo.name() << " batch k=" << k;
    }
    // The batch hands out exactly the values the k sequential tokens
    // receive; the traversal may permute them within the batch.
    std::sort(got.begin(), got.end());
    std::sort(expect.begin(), expect.end());
    ASSERT_EQ(got, expect) << topo.name() << " batch k=" << k;
    for (std::uint32_t i = 0; i < k; ++i) {
      ASSERT_EQ(got[i], counted + i)
          << topo.name() << " batch k=" << k << " breaks the step property";
    }
    counted += k;
  }
  for (NodeIndex b = 0; b < topo.num_balancers(); ++b) {
    std::uint64_t through = 0;
    for (PortIndex j = 0; j < topo.balancer(b).fan_out(); ++j) {
      through += spec.balancer_out_count(b, j);
    }
    EXPECT_EQ(impl.net.balancer_through(b), through)
        << topo.name() << " balancer " << b;
  }
  const std::vector<std::uint64_t> sinks = impl.net.sink_counts();
  for (std::uint32_t j = 0; j < topo.fan_out(); ++j) {
    EXPECT_EQ(sinks[j], spec.sink_count(j)) << topo.name() << " sink " << j;
  }
  EXPECT_EQ(impl.net.total(), spec.total_exited());
}

void expect_batches_match_sequential(
    const Network& topo, const std::vector<std::uint32_t>& batches,
    const std::vector<std::uint32_t>* feed = nullptr) {
  expect_batch_matches_sequential<ConcurrentImpl>(topo, batches, feed);
  expect_batch_matches_sequential<ShardImpl>(topo, batches, feed);
}

// A one-entry feed cycling wires per batch, then the classic feeds of
// service shards 0..2.
void expect_feedings_match_sequential(
    const Network& topo, const std::vector<std::uint32_t>& batches) {
  expect_batches_match_sequential(topo, batches);
  for (std::uint32_t s = 0; s < 3; ++s) {
    const std::vector<std::uint32_t> feed = classic_feed(topo, s);
    expect_batches_match_sequential(topo, batches, &feed);
  }
}

TEST(ConcurrentBatch, PureBatchSizesMatchSequentialSpec) {
  // Issue-sized (1), sub-width (3), multi-round (64), and non-power-of-two
  // (37) batches, each against a fresh network so the per-size effect is
  // isolated.
  for (const std::uint32_t k : {1u, 3u, 64u, 37u}) {
    const std::vector<std::uint32_t> batches(5, k);
    expect_feedings_match_sequential(make_bitonic(8), batches);
    expect_feedings_match_sequential(make_periodic(8), batches);
    expect_feedings_match_sequential(make_counting_tree(8), batches);
  }
}

TEST(ConcurrentBatch, MixedBatchSizesMatchSequentialSpec) {
  // Interleaved sizes exercise the mod-f dispenser restarting from an
  // arbitrary residue (pos % f != 0) at every balancer, and the feed
  // cursor restarting mid-cycle.
  const std::vector<std::uint32_t> batches = {1, 3, 64, 37, 2, 8, 5, 1, 13};
  expect_feedings_match_sequential(make_bitonic(8), batches);
  expect_feedings_match_sequential(make_periodic(8), batches);
  expect_feedings_match_sequential(make_counting_tree(8), batches);
  expect_feedings_match_sequential(make_bitonic(4), batches);
  // Non-power-of-two fan-out (the mod-f split without a mask), a block
  // cascade, and one wide balancer with fewer inputs than outputs.
  expect_feedings_match_sequential(make_counting_tree_k(9, 3), batches);
  expect_feedings_match_sequential(make_block_cascade(8, 3), batches);
  expect_feedings_match_sequential(make_single_balancer(3, 5), batches);
}

TEST(ConcurrentBatch, SplitPartsFedInFeedOrderMatchSequentialSpec) {
  // The elastic service's shards: every extracted part at every
  // operational split level, fed in its balanced cyclic feed order.
  const std::vector<std::uint32_t> batches = {1, 3, 64, 37, 2, 8, 5, 1, 13};
  for (const Network& net : {make_bitonic(8), make_periodic(8)}) {
    const SplitPlan plan(net);
    for (std::uint32_t ell = 1; ell <= operational_max_level(plan); ++ell) {
      for (const Subnetwork& part : plan.extract(ell)) {
        expect_batches_match_sequential(*part.net, batches, &part.feed_order);
      }
    }
  }
}

TEST(ConcurrentBatch, NonCountingNetworksMatchSequentialMultisets) {
  // Without the step property a batch's values are not one contiguous
  // range: the shard traversal must still hand out the sequential
  // multiset, ascending, and leave the sequential state behind. Each
  // batch is a one-entry feed.
  for (const Network& topo : {make_block(8), make_brick_wall(8, 3)}) {
    ShardImpl impl(topo);
    NetworkState spec(topo);
    TokenId token = 0;
    std::uint32_t next_source = 0;
    for (const std::uint32_t k : {1u, 3u, 64u, 37u, 2u, 8u, 5u, 13u}) {
      const std::uint32_t s = next_source++ % topo.fan_in();
      std::vector<std::uint64_t> got(k);
      impl.net.increment_batch(std::span(&s, 1), 0, k, got.data());
      ASSERT_TRUE(std::is_sorted(got.begin(), got.end())) << topo.name();
      std::vector<std::uint64_t> expect;
      for (std::uint32_t i = 0; i < k; ++i) {
        expect.push_back(spec.shepherd(token++, 0, s));
      }
      std::sort(expect.begin(), expect.end());
      ASSERT_EQ(got, expect) << topo.name() << " batch k=" << k;
    }
    for (NodeIndex b = 0; b < topo.num_balancers(); ++b) {
      EXPECT_EQ(impl.net.balancer_through(b),
                spec.balancer_out_count(b, 0) + spec.balancer_out_count(b, 1))
          << topo.name() << " balancer " << b;
    }
    for (std::uint32_t j = 0; j < topo.fan_out(); ++j) {
      EXPECT_EQ(impl.net.sink_counts()[j], spec.sink_count(j)) << topo.name();
    }
  }
}

TEST(ConcurrentBatch, BatchEqualsRepeatedSingleIncrements) {
  // From identical start states, one increment_batch(s, k) and k calls to
  // increment(s) leave bitwise-identical balancer and counter state.
  const Network topo = make_bitonic(8);
  ConcurrentNetwork batched(topo);
  ConcurrentNetwork single(topo);
  std::vector<std::uint64_t> got(96);
  batched.increment_batch(2, 96, got.data());
  std::vector<std::uint64_t> expect;
  for (int i = 0; i < 96; ++i) expect.push_back(single.increment(2));
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect);
  for (NodeIndex b = 0; b < topo.num_balancers(); ++b) {
    EXPECT_EQ(batched.balancer_through(b), single.balancer_through(b));
  }
  EXPECT_EQ(batched.sink_counts(), single.sink_counts());
}

TEST(ConcurrentBatch, ZeroSizedBatchIsANoOp) {
  const Network topo = make_bitonic(4);
  ConcurrentNetwork net(topo);
  net.increment_batch(0, 0, nullptr);
  EXPECT_EQ(net.total(), 0u);
  ShardImpl shard(topo);
  const std::vector<std::uint32_t> feed = classic_feed(topo, 0);
  shard.net.increment_batch(feed, 0, 0, nullptr);
  EXPECT_EQ(shard.net.total(), 0u);
}

TEST(ConcurrentBatch, MixedBatchAndSingleThreadsStayGapFree) {
  // Half the threads issue single tokens, half issue odd-sized batches;
  // the union must still be a gap-free 0..n-1 and the network quiescently
  // smooth. This is the TSan-exercised interleaving test: batched and
  // single traversals share every balancer word.
  const Network topo = make_bitonic(8);
  ConcurrentNetwork net(topo);
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kSingles = 350;
  constexpr std::uint32_t kBatch = 7;
  constexpr std::uint32_t kBatches = 50;
  std::vector<std::vector<std::uint64_t>> got(kThreads);
  std::vector<std::thread> workers;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      if (t % 2 == 0) {
        for (std::uint64_t k = 0; k < kSingles; ++k) {
          got[t].push_back(net.increment(t % 8));
        }
      } else {
        std::uint64_t vals[kBatch];
        for (std::uint32_t k = 0; k < kBatches; ++k) {
          net.increment_batch((t + k) % 8, kBatch, vals);
          got[t].insert(got[t].end(), vals, vals + kBatch);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  std::vector<std::uint64_t> all;
  for (const auto& v : got) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), 2 * kSingles + 2 * kBatch * kBatches);
  for (std::uint64_t i = 0; i < all.size(); ++i) ASSERT_EQ(all[i], i);
  EXPECT_TRUE(has_step_property(net.sink_counts()));
}

}  // namespace
}  // namespace cn
