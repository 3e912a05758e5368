// Tests for the message-passing substrate (src/msg): the kernel, the
// counting-network service, and the paper's claim that c_min/c_max cover
// message-passing implementations (Section 2.3).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/constructions.hpp"
#include "msg/event_kernel.hpp"
#include "msg/service.hpp"
#include "trace/consistency.hpp"

namespace cn {
namespace {

using msg::EventKernel;
using msg::MsgRunSpec;
using msg::Payload;
using msg::run_message_passing;

TEST(EventKernel, DeliversInTimeOrder) {
  EventKernel k;
  std::vector<int> order;
  const auto a = k.add_actor([&](const msg::Envelope&) { order.push_back(1); });
  const auto b = k.add_actor([&](const msg::Envelope&) { order.push_back(2); });
  k.send(a, {}, 5.0);
  k.send(b, {}, 2.0);
  EXPECT_EQ(k.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_DOUBLE_EQ(k.now(), 5.0);
}

TEST(EventKernel, FifoTieBreakAtEqualTimes) {
  EventKernel k;
  std::vector<int> order;
  const auto a = k.add_actor([&](const msg::Envelope&) { order.push_back(1); });
  k.send(a, {}, 3.0);
  k.send(a, {}, 3.0);
  EventKernel k2;  // independent kernel sanity
  (void)k2;
  EXPECT_EQ(k.run(), 2u);
  EXPECT_EQ(order.size(), 2u);
}

TEST(EventKernel, HandlersMaySendReentrantly) {
  EventKernel k;
  int hops = 0;
  msg::ActorId a = 0;
  a = k.add_actor([&](const msg::Envelope&) {
    if (++hops < 5) k.send(a, {}, 1.0);
  });
  k.send(a, {}, 1.0);
  EXPECT_EQ(k.run(), 5u);
  EXPECT_DOUBLE_EQ(k.now(), 5.0);
}

TEST(MsgService, ValuesAreGapFree) {
  const Network net = make_bitonic(8);
  MsgRunSpec spec;
  spec.processes = 6;
  spec.ops_per_process = 20;
  const auto res = run_message_passing(net, spec);
  ASSERT_TRUE(res.ok()) << res.error;
  ASSERT_EQ(res.trace.size(), 120u);
  std::vector<Value> values;
  for (const TokenRecord& r : res.trace) values.push_back(r.value);
  std::sort(values.begin(), values.end());
  for (std::size_t i = 0; i < values.size(); ++i) EXPECT_EQ(values[i], i);
}

TEST(MsgService, TraceTimestampsAreOrdered) {
  const Network net = make_periodic(4);
  MsgRunSpec spec;
  spec.processes = 4;
  spec.ops_per_process = 10;
  const auto res = run_message_passing(net, spec);
  ASSERT_TRUE(res.ok());
  for (const TokenRecord& r : res.trace) {
    EXPECT_LE(r.t_in, r.t_out);
    EXPECT_LE(r.first_seq, r.last_seq);
  }
  // Message count: each token crosses depth+1 nodes plus entry and reply.
  EXPECT_GE(res.messages, res.trace.size() * (net.depth() + 1));
}

TEST(MsgService, PerProcessOperationsNeverOverlap) {
  const Network net = make_bitonic(8);
  MsgRunSpec spec;
  spec.processes = 5;
  spec.ops_per_process = 12;
  const auto res = run_message_passing(net, spec);
  ASSERT_TRUE(res.ok());
  std::map<ProcessId, std::vector<const TokenRecord*>> per;
  for (const TokenRecord& r : res.trace) per[r.process].push_back(&r);
  for (auto& [p, recs] : per) {
    std::sort(recs.begin(), recs.end(),
              [](const TokenRecord* a, const TokenRecord* b) {
                return a->first_seq < b->first_seq;
              });
    for (std::size_t i = 1; i < recs.size(); ++i) {
      EXPECT_GE(recs[i]->t_in, recs[i - 1]->t_out) << "process " << p;
    }
  }
}

TEST(MsgService, BoundedAsynchronyKeepsConsistency) {
  // Ratio exactly 2: LSST Cor 3.10 / Theorem 3.2 promise linearizability
  // and hence sequential consistency regardless of schedule.
  const Network net = make_bitonic(8);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    MsgRunSpec spec;
    spec.processes = 8;
    spec.ops_per_process = 12;
    spec.c_min = 1.0;
    spec.c_max = 2.0;
    spec.seed = seed;
    const auto res = run_message_passing(net, spec);
    ASSERT_TRUE(res.ok());
    const ConsistencyReport rep = analyze(res.trace);
    EXPECT_TRUE(rep.linearizable()) << "seed " << seed;
    EXPECT_TRUE(rep.sequentially_consistent()) << "seed " << seed;
  }
}

TEST(MsgService, LargeLocalDelayGuaranteesSC) {
  // Theorem 4.1 transfers verbatim: client think time above
  // d(G)(c_max - 2 c_min) forces sequential consistency.
  const Network net = make_bitonic(8);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    MsgRunSpec spec;
    spec.processes = 8;
    spec.ops_per_process = 10;
    spec.c_min = 1.0;
    spec.c_max = 6.0;
    spec.local_delay = net.depth() * (6.0 - 2.0) + 0.5;
    spec.seed = seed;
    const auto res = run_message_passing(net, spec);
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(is_sequentially_consistent(res.trace)) << "seed " << seed;
  }
}

TEST(MsgService, WorksOnTheCountingTree) {
  const Network net = make_counting_tree(8);
  MsgRunSpec spec;
  spec.processes = 6;
  spec.ops_per_process = 15;
  const auto res = run_message_passing(net, spec);
  ASSERT_TRUE(res.ok());
  std::vector<Value> values;
  for (const TokenRecord& r : res.trace) values.push_back(r.value);
  std::sort(values.begin(), values.end());
  for (std::size_t i = 0; i < values.size(); ++i) EXPECT_EQ(values[i], i);
}

TEST(MsgService, SlowProcessCreatesViolationsAboveRatioTwo) {
  // Heterogeneous per-process latencies (process 0 at c_max, rest at
  // c_min) realize overtaking: above ratio 2 some runs must violate
  // linearizability.
  const Network net = make_bitonic(8);
  int violations = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    MsgRunSpec spec;
    spec.processes = 8;
    spec.ops_per_process = 12;
    spec.c_min = 1.0;
    spec.c_max = 5.0;
    spec.slow_process_zero = true;
    spec.seed = seed * 7919;
    const auto res = run_message_passing(net, spec);
    ASSERT_TRUE(res.ok());
    violations += !is_linearizable(res.trace);
  }
  EXPECT_GT(violations, 0);
}

TEST(MsgService, ThinkTimeSeparatesSCFromLinearizability) {
  // The paper's separation observed end to end: with the Theorem 4.1
  // think time at high asynchrony, NO run violates SC, yet some still
  // violate linearizability.
  const Network net = make_bitonic(8);
  int nl = 0, nsc = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    MsgRunSpec spec;
    spec.processes = 8;
    spec.ops_per_process = 12;
    spec.c_min = 1.0;
    spec.c_max = 8.0;
    spec.local_delay = net.depth() * (8.0 - 2.0) + 0.5;
    spec.slow_process_zero = true;
    spec.seed = seed * 7919;
    const auto res = run_message_passing(net, spec);
    ASSERT_TRUE(res.ok());
    nl += !is_linearizable(res.trace);
    nsc += !is_sequentially_consistent(res.trace);
  }
  EXPECT_EQ(nsc, 0);  // guaranteed by Theorem 4.1
  EXPECT_GT(nl, 0);   // the separation (Corollary 4.5) in practice
}

TEST(MsgService, RejectsEmptyWorkload) {
  const Network net = make_bitonic(4);
  MsgRunSpec spec;
  spec.processes = 0;
  EXPECT_FALSE(run_message_passing(net, spec).ok());
}

}  // namespace
}  // namespace cn
