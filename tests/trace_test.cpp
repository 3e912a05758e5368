// The streaming trace pipeline (src/trace): sink plumbing, the
// producer-side issue-order reorder buffer, the incremental consistency
// checker's byte-identity with batch analyze() on randomized / faulted /
// tie-heavy / empty traces, arrival-contract enforcement, the binary
// trace format, and the streaming degradation accumulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/constructions.hpp"
#include "fault/fault.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"
#include "trace/consistency.hpp"
#include "trace/serialize.hpp"
#include "trace/sink.hpp"
#include "trace/streaming.hpp"
#include "util/rng.hpp"

namespace {

using namespace cn;

// ---------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------

void expect_reports_equal(const ConsistencyReport& got,
                          const ConsistencyReport& want,
                          const std::string& label) {
  EXPECT_EQ(got.total, want.total) << label;
  EXPECT_EQ(got.non_linearizable, want.non_linearizable) << label;
  EXPECT_EQ(got.non_sequentially_consistent,
            want.non_sequentially_consistent)
      << label;
  EXPECT_DOUBLE_EQ(got.f_nl, want.f_nl) << label;
  EXPECT_DOUBLE_EQ(got.f_nsc, want.f_nsc) << label;
}

/// Replays a materialized trace the way an event-driven producer would:
/// opens at first_seq, closes at last_seq (opens win seq ties so every
/// record opens before it closes), all through an IssueWindowBuffer. Opens
/// sharing a first_seq go in issue order, keeping the producer monotone.
/// The sink therefore sees exactly what a live producer would emit.
void feed_via_issue_buffer(const Trace& trace, TraceSink& sink) {
  struct Ev {
    std::uint64_t seq;
    int kind;  // 0 = open, 1 = close
    std::size_t idx;
  };
  std::vector<std::size_t> by_issue(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) by_issue[i] = i;
  std::sort(by_issue.begin(), by_issue.end(),
            [&](std::size_t a, std::size_t b) {
              return issue_order_less(trace[a], trace[b]);
            });
  std::vector<Ev> events;
  events.reserve(2 * trace.size());
  for (const std::size_t i : by_issue) {
    events.push_back({trace[i].first_seq, 0, i});
    events.push_back({trace[i].last_seq, 1, i});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Ev& a, const Ev& b) {
                     return std::tie(a.seq, a.kind) < std::tie(b.seq, b.kind);
                   });
  IssueWindowBuffer buffer(sink);
  std::vector<std::uint64_t> pos(trace.size());
  for (const Ev& e : events) {
    if (e.kind == 0) {
      pos[e.idx] = buffer.open();
    } else {
      buffer.close(pos[e.idx], trace[e.idx]);
    }
  }
  buffer.flush();
}

/// The differential: batch analyze() vs the streaming checker fed the
/// same trace, both pre-sorted into issue order and reordered live
/// through the producer-side buffer from completion-time events.
void expect_streaming_matches_batch(const Trace& trace,
                                    const std::string& label) {
  const ConsistencyReport batch = analyze(trace);

  StreamingConsistency sorted;
  feed_issue_order(trace, sorted);
  sorted.finish();
  expect_reports_equal(sorted.report(), batch, label + " [sorted]");

  StreamingConsistency buffered;
  feed_via_issue_buffer(trace, buffered);
  buffered.finish();
  expect_reports_equal(buffered.report(), batch, label + " [buffered]");
}

/// A simulator trace with the given adversarial c_max (past ratio 2 the
/// bitonic network produces consistency violations).
Trace simulator_trace(std::uint32_t width, std::uint32_t processes,
                      std::uint32_t ops, double c_max, std::uint64_t seed) {
  const Network net = make_bitonic(width);
  WorkloadSpec wl;
  wl.processes = processes;
  wl.tokens_per_process = ops;
  wl.c_min = 1.0;
  wl.c_max = c_max;
  wl.local_delay_min = 0.0;
  wl.local_delay_max = 2.0;
  Xoshiro256 rng(seed);
  const SimulationResult sim = simulate(generate_workload(net, wl, rng));
  EXPECT_TRUE(sim.ok()) << sim.error;
  return sim.trace;
}

/// Synthetic trace with heavy seq-number collisions ACROSS processes
/// (every process stays sequential: its own ops never overlap). Values
/// are random, so both analyzers see plenty of flags to disagree on.
Trace tie_heavy_trace(std::uint32_t processes, std::uint32_t ops,
                      std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Trace trace;
  TokenId next = 0;
  for (ProcessId p = 0; p < processes; ++p) {
    std::uint64_t cursor = rng.range(0, 2);
    for (std::uint32_t k = 0; k < ops; ++k) {
      TokenRecord r;
      r.token = next++;
      r.process = p;
      r.source = p;
      r.sink = static_cast<std::uint32_t>(rng.range(0, 3));
      r.value = rng.range(0, processes * ops / 2);  // collisions on purpose
      r.first_seq = cursor + rng.range(0, 1);
      r.last_seq = r.first_seq + rng.range(0, 2);
      r.t_in = static_cast<double>(r.first_seq);
      r.t_out = static_cast<double>(r.last_seq);
      cursor = r.last_seq + rng.range(1, 2);
      trace.push_back(r);
    }
  }
  return trace;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

// ---------------------------------------------------------------------
// Sink plumbing.
// ---------------------------------------------------------------------

TEST(TraceSink, CollectSinkIsPushBack) {
  const Trace trace = tie_heavy_trace(3, 4, 7);
  CollectSink sink;
  for (const TokenRecord& r : trace) sink.on_record(r);
  ASSERT_EQ(sink.trace().size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(sink.trace()[i].token, trace[i].token);
    EXPECT_EQ(sink.trace()[i].value, trace[i].value);
  }
  const Trace taken = sink.take();
  EXPECT_EQ(taken.size(), trace.size());
}

TEST(TraceSink, TeeSinkFansOutToBoth) {
  const Trace trace = tie_heavy_trace(2, 3, 11);
  CollectSink a, b;
  TeeSink tee(a, b);
  feed_completion_order(trace, tee);
  ASSERT_EQ(a.trace().size(), trace.size());
  ASSERT_EQ(b.trace().size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(a.trace()[i].token, b.trace()[i].token);
  }
}

TEST(TraceSink, FeedOrdersAreSorted) {
  const Trace trace = tie_heavy_trace(4, 5, 13);
  CollectSink by_issue, by_completion;
  feed_issue_order(trace, by_issue);
  feed_completion_order(trace, by_completion);
  ASSERT_EQ(by_issue.trace().size(), trace.size());
  ASSERT_EQ(by_completion.trace().size(), trace.size());
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_FALSE(
        issue_order_less(by_issue.trace()[i], by_issue.trace()[i - 1]));
    EXPECT_FALSE(completion_order_less(by_completion.trace()[i],
                                       by_completion.trace()[i - 1]));
  }
}

// ---------------------------------------------------------------------
// Streaming-vs-batch differential (the tentpole's exactness claim).
// ---------------------------------------------------------------------

TEST(StreamingConsistency, EmptyTrace) {
  StreamingConsistency checker;
  checker.finish();
  EXPECT_EQ(checker.report().total, 0u);
  EXPECT_TRUE(checker.report().linearizable());
  EXPECT_TRUE(checker.report().sequentially_consistent());
  EXPECT_DOUBLE_EQ(checker.report().f_nl, 0.0);
}

TEST(StreamingConsistency, MatchesBatchOnRandomizedSimulatorTraces) {
  for (const double c_max : {1.5, 2.5, 4.0}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const Trace trace = simulator_trace(8, 6, 5, c_max, seed);
      ASSERT_FALSE(trace.empty());
      expect_streaming_matches_batch(
          trace, "simulator c_max=" + std::to_string(c_max) + " seed=" +
                     std::to_string(seed));
    }
  }
}

TEST(StreamingConsistency, MatchesBatchOnTieHeavyTraces) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Trace trace = tie_heavy_trace(5, 8, seed);
    // The construction must actually produce cross-process seq ties.
    std::size_t ties = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      for (std::size_t j = i + 1; j < trace.size(); ++j) {
        ties += trace[i].last_seq == trace[j].last_seq;
      }
    }
    ASSERT_GT(ties, 0u) << "seed " << seed;
    expect_streaming_matches_batch(trace,
                                   "tie-heavy seed=" + std::to_string(seed));
  }
}

TEST(StreamingConsistency, MatchesBatchOnFaultedTraces) {
  const Network net = make_bitonic(8);
  WorkloadSpec wl;
  wl.processes = 6;
  wl.tokens_per_process = 6;
  wl.c_min = 1.0;
  wl.c_max = 3.0;
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 5;
  plan.p_token_loss = 0.15;
  plan.p_stuck_balancer = 0.1;
  plan.p_process_crash = 0.2;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Xoshiro256 rng(seed);
    const TimedExecution exec = generate_workload(net, wl, rng);
    const SimFaults faults = fault::draw_sim_faults(net, exec, plan, seed);
    SimArena arena;
    const SimulationResult sim = simulate(exec, faults, arena);
    ASSERT_TRUE(sim.ok()) << sim.error;
    expect_streaming_matches_batch(sim.trace,
                                   "faulted seed=" + std::to_string(seed));

    // The faulted simulator's own streaming emission (not a re-fed
    // trace) must match too: live reordered emission, same fault overlay.
    StreamingConsistency live;
    const SimulationResult streamed =
        simulate_stream(exec, faults, arena, live);
    ASSERT_TRUE(streamed.ok()) << streamed.error;
    EXPECT_TRUE(streamed.trace.empty());
    live.finish();
    expect_reports_equal(live.report(), analyze(sim.trace),
                         "faulted live stream seed=" + std::to_string(seed));
  }
}

TEST(StreamingConsistency, LiveSimulatorStreamMatchesCollect) {
  const Network net = make_bitonic(8);
  WorkloadSpec wl;
  wl.processes = 6;
  wl.tokens_per_process = 8;
  wl.c_min = 1.0;
  wl.c_max = 3.0;
  Xoshiro256 rng(0xABCD);
  const TimedExecution exec = generate_workload(net, wl, rng);
  const SimulationResult collect = simulate(exec);
  ASSERT_TRUE(collect.ok());

  SimArena arena;
  StreamingConsistency live;
  const SimulationResult streamed = simulate_stream(exec, arena, live);
  ASSERT_TRUE(streamed.ok()) << streamed.error;
  EXPECT_TRUE(streamed.trace.empty());
  live.finish();
  expect_reports_equal(live.report(), analyze(collect.trace), "live sim");
  // The memory claim: buffered records stay proportional to the open-op
  // concurrency (processes), far below the token count.
  EXPECT_LE(live.peak_pending(), 4u * wl.processes + 8u);
  EXPECT_LT(live.peak_pending(), live.report().total);
}

TEST(StreamingConsistency, ResetReuses) {
  // Dense process ids, and the same traces with ids far past the
  // checker's vector-indexed range (the wave adversary's numbering).
  for (const ProcessId base : {ProcessId{0}, ProcessId{1'000'000}}) {
    Trace a = simulator_trace(8, 4, 4, 3.0, 1);
    Trace b = simulator_trace(8, 4, 4, 3.0, 2);
    for (Trace* t : {&a, &b}) {
      for (TokenRecord& r : *t) r.process += base;
    }
    const std::string label = "base " + std::to_string(base);
    StreamingConsistency checker;
    feed_issue_order(a, checker);
    checker.finish();
    const ConsistencyReport first = checker.report();
    expect_reports_equal(first, analyze(a), label + " reset-first");
    checker.reset();
    feed_issue_order(b, checker);
    checker.finish();
    expect_reports_equal(checker.report(), analyze(b), label + " reset-second");
  }
}

// ---------------------------------------------------------------------
// Arrival-contract enforcement: refuse, never silently diverge.
// ---------------------------------------------------------------------

TokenRecord rec(TokenId token, ProcessId process, Value value,
                std::uint64_t first, std::uint64_t last) {
  TokenRecord r;
  r.token = token;
  r.process = process;
  r.value = value;
  r.first_seq = first;
  r.last_seq = last;
  r.t_in = static_cast<double>(first);
  r.t_out = static_cast<double>(last);
  return r;
}

TEST(StreamingConsistency, IssueOrderViolationThrows) {
  StreamingConsistency checker;
  checker.on_record(rec(0, 0, 0, 5, 10));
  EXPECT_THROW(checker.on_record(rec(1, 1, 1, 4, 20)),
               std::invalid_argument);
}

TEST(StreamingConsistency, SelfOverlappingProcessIsExact) {
  // Two ops of one process overlapping each other (the footprint of a
  // duplicated message), with the EARLIER-issued op completing later.
  // Issue order is valid for ANY trace, including this one.
  Trace trace;
  trace.push_back(rec(0, 3, 2, 5, 10));
  trace.push_back(rec(1, 3, 7, 1, 20));  // issued first, completed last
  StreamingConsistency issue;
  feed_issue_order(trace, issue);
  issue.finish();
  const ConsistencyReport batch = analyze(trace);
  // Issue order is token 1 (value 7) then token 0 (value 2): the later
  // op of the process saw a smaller value, so exactly one SC flag.
  ASSERT_EQ(batch.non_sequentially_consistent.size(), 1u);
  expect_reports_equal(issue.report(), batch, "self-overlap");
}

TEST(TraceSink, IssueWindowBufferReordersAndReleasesOnDrop) {
  // Closes arrive out of issue order: the op issued FIRST completes LAST.
  // The window must hold back the early completions and still emit
  // non-decreasing issue keys.
  const std::vector<TokenRecord> records = {
      rec(0, 0, 5, 1, 30),  // open 1 .. close 30
      rec(1, 1, 2, 2, 10),  // open 2 .. close 10 (held back behind token 0)
      rec(2, 2, 3, 3, 20),  // open 3 .. close 20 (held back behind token 0)
  };
  CollectSink out;
  feed_via_issue_buffer(Trace(records.begin(), records.end()), out);
  ASSERT_EQ(out.trace().size(), 3u);
  EXPECT_EQ(out.trace()[0].token, 0u);
  EXPECT_EQ(out.trace()[1].token, 1u);
  EXPECT_EQ(out.trace()[2].token, 2u);

  IssueWindowBuffer buffer(out);
  const std::uint64_t first = buffer.open();
  const std::uint64_t second = buffer.open();
  buffer.close(second, records[1]);  // blocked: the first op is still open
  EXPECT_EQ(out.trace().size(), 3u);
  EXPECT_EQ(buffer.peak_window(), 2u);
  buffer.drop(first);  // the op vanishes: the blocked record releases
  ASSERT_EQ(out.trace().size(), 4u);
  EXPECT_EQ(out.trace()[3].token, 1u);
  buffer.flush();
  EXPECT_EQ(out.trace().size(), 4u);
}

/// A lane receives records roughly in issue order, with some arriving
/// behind many records with higher seqs (a submitter that drew its
/// first_seq early and pushed late). Some records tie on first_seq, and
/// some of those on last_seq too, so the token decides; tokens are
/// shuffled so that token order is not append order.
Trace late_arrival_lane(std::uint64_t seed, TokenId first_token,
                        std::size_t n) {
  Xoshiro256 rng(seed);
  std::vector<TokenId> tokens(n);
  for (std::size_t i = 0; i < n; ++i) tokens[i] = first_token + i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(tokens[i - 1], tokens[rng.below(i)]);
  }
  Trace lane;
  std::uint64_t cursor = 1000;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t first = cursor;
    if (rng.below(6) == 0) first -= 1 + rng.below(400);  // Far behind.
    if (rng.below(4) == 0) first = cursor - rng.below(3);  // Ties.
    cursor += rng.below(3);
    const std::uint64_t last = first + 1 + rng.below(2);
    lane.push_back(rec(tokens[i], static_cast<ProcessId>(rng.below(3)),
                       rng.below(n), first, last));
  }
  // The first record of the lane's history arrives last of all.
  lane.push_back(rec(first_token + n, 0, 0, 0, 1));
  return lane;
}

/// A lane's records in order, as one Trace.
Trace flat(const RecordLane& lane) {
  Trace out;
  for (const Trace& block : lane.blocks()) {
    out.insert(out.end(), block.begin(), block.end());
  }
  return out;
}

TEST(TraceSink, AppendIssueOrderedKeepsLanesSortedAndMergesExactly) {
  // 10,000 records a lane: ten blocks, so some late arrivals land in an
  // earlier block than the slot their append opens.
  constexpr std::size_t kPerLane = 10'000;
  constexpr std::size_t kBlock = RecordLane::kBlock;
  std::vector<RecordLane> lanes(3);
  Trace all;
  std::size_t behind = 0;
  std::size_t across_blocks = 0;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    const Trace arrivals =
        late_arrival_lane(0x1A7E + l, 100'000 * l, kPerLane);
    RecordLane& lane = lanes[l];
    for (const TokenRecord& r : arrivals) {
      if (!lane.empty() && issue_order_less(r, lane.back())) {
        ++behind;
        const std::size_t open_block = lane.size() / kBlock * kBlock;
        across_blocks +=
            open_block > 0 && issue_order_less(r, lane[open_block - 1]);
      }
      append_issue_ordered(lane, r);
    }
    // The lane holds exactly its arrivals, sorted by the (total) issue
    // key.
    Trace sorted = arrivals;
    std::sort(sorted.begin(), sorted.end(), issue_order_less);
    EXPECT_EQ(flat(lane), sorted) << "lane " << l;
    ASSERT_EQ(lanes[l].front().first_seq, 0u);
    all.insert(all.end(), arrivals.begin(), arrivals.end());
  }
  // Late arrivals were common, some crossed a block boundary, and ties
  // on both seqs occurred.
  EXPECT_GT(behind, 1000u);
  EXPECT_GT(across_blocks, 100u);
  std::size_t seq_ties = 0;
  for (const RecordLane& lane : lanes) {
    for (std::size_t i = 1; i < lane.size(); ++i) {
      seq_ties += lane[i].first_seq == lane[i - 1].first_seq &&
                  lane[i].last_seq == lane[i - 1].last_seq;
    }
  }
  EXPECT_GT(seq_ties, 100u);

  CollectSink merged, fed;
  merge_issue_ordered(lanes, merged);
  feed_issue_order(all, fed);
  EXPECT_EQ(merged.trace(), fed.trace());
  for (const RecordLane& lane : lanes) EXPECT_TRUE(lane.empty());
}

TEST(TraceSink, InOrderAppendsNeverMoveAStoredRecord) {
  RecordLane lane;
  append_issue_ordered(lane, rec(0, 0, 0, 0, 1));
  const TokenRecord* first = &lane.front();
  for (TokenId t = 1; t <= 100'000; ++t) {
    append_issue_ordered(lane, rec(t, 0, t, 2 * t, 2 * t + 1));
  }
  ASSERT_EQ(lane.size(), 100'001u);
  EXPECT_EQ(&lane.front(), first);
  EXPECT_EQ(first->token, 0u);
}

/// Streams `trace` through the checker and compares the report with
/// analyze(), and peak_pending() with its definition: the largest number
/// of arrivals not yet known to completely precede the newest one.
/// Returns the peak.
std::size_t expect_checker_exact(const Trace& trace, const std::string& what) {
  StreamingConsistency checker;
  feed_issue_order(trace, checker);
  checker.finish();
  expect_reports_equal(checker.report(), analyze(trace), what);
  Trace sorted = trace;
  std::sort(sorted.begin(), sorted.end(), issue_order_less);
  std::size_t peak = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    std::size_t pending = 0;
    for (std::size_t j = 0; j <= i; ++j) {
      pending += sorted[j].last_seq >= sorted[i].first_seq;
    }
    peak = std::max(peak, pending);
  }
  EXPECT_EQ(checker.peak_pending(), peak) << what;
  return peak;
}

TEST(StreamingConsistency, WideFrontierInsertsAndCompactsExactly) {
  // first_seqs step by one (with ties) while each operation stays open
  // for up to 400 seqs, so about 400 operations are pending at a time,
  // in random last_seq order: most arrivals go into the middle of the
  // frontier, and its folded head passes the compaction point many
  // times over.
  Xoshiro256 rng(0xF407);
  Trace wide;
  for (TokenId t = 0; t < 6000; ++t) {
    const std::uint64_t first = t / 2;
    wide.push_back(rec(t, static_cast<ProcessId>(rng.below(16)),
                       rng.below(6000), first, first + rng.below(400)));
  }
  EXPECT_GT(expect_checker_exact(wide, "wide frontier"), 150u);
  EXPECT_FALSE(analyze(wide).non_linearizable.empty());

  // The compaction keeps the live entries. Operation 1 holds the largest
  // value and is the first live entry when the folded prefix (operations
  // 2..33, each complete at once) is dropped; operation 40 starts after
  // it ends, so only operation 1 can flag it.
  Trace pinned;
  pinned.push_back(rec(0, 0, 0, 0, 1000));
  pinned.push_back(rec(1, 1, 1'000'000, 1, 40));
  for (TokenId t = 2; t < 40; ++t) pinned.push_back(rec(t, t, t, t, t));
  pinned.push_back(rec(40, 40, 50, 41, 41));
  expect_checker_exact(pinned, "compaction");
  EXPECT_EQ(analyze(pinned).non_linearizable, std::vector<TokenId>{40});
}

TEST(StreamingConsistency, OnRecordAfterFinishThrows) {
  StreamingConsistency checker;
  checker.finish();
  EXPECT_THROW(checker.on_record(rec(0, 0, 0, 1, 2)), std::logic_error);
}

// ---------------------------------------------------------------------
// Binary trace format.
// ---------------------------------------------------------------------

TEST(TraceSerialize, RoundTripIsFieldExact) {
  const Trace trace = simulator_trace(8, 5, 4, 2.5, 3);
  const std::string path = temp_path("roundtrip.trace");
  ASSERT_EQ(write_trace_file(path, trace), "");
  const ReadTraceResult rd = read_trace_file(path);
  ASSERT_TRUE(rd.ok()) << rd.error;
  ASSERT_EQ(rd.trace.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(rd.trace[i].token, trace[i].token);
    EXPECT_EQ(rd.trace[i].process, trace[i].process);
    EXPECT_EQ(rd.trace[i].source, trace[i].source);
    EXPECT_EQ(rd.trace[i].sink, trace[i].sink);
    EXPECT_EQ(rd.trace[i].value, trace[i].value);
    // Doubles round-trip through bit_cast: exact bits, not approximate.
    EXPECT_EQ(rd.trace[i].t_in, trace[i].t_in);
    EXPECT_EQ(rd.trace[i].t_out, trace[i].t_out);
    EXPECT_EQ(rd.trace[i].first_seq, trace[i].first_seq);
    EXPECT_EQ(rd.trace[i].last_seq, trace[i].last_seq);
  }
  std::remove(path.c_str());
}

TEST(TraceSerialize, WritingTwiceIsByteIdentical) {
  const Trace trace = simulator_trace(8, 4, 3, 3.0, 9);
  const std::string p1 = temp_path("bytes1.trace");
  const std::string p2 = temp_path("bytes2.trace");
  ASSERT_EQ(write_trace_file(p1, trace), "");
  ASSERT_EQ(write_trace_file(p2, trace), "");
  std::ifstream a(p1, std::ios::binary), b(p2, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
  EXPECT_EQ(bytes_a.size(),
            kTraceHeaderBytes + kTraceRecordBytes * trace.size());
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(TraceSerialize, WriterSinkMatchesConvenienceWrapper) {
  const Trace trace = tie_heavy_trace(3, 4, 21);
  const std::string p1 = temp_path("sink.trace");
  const std::string p2 = temp_path("wrapper.trace");
  TraceWriter writer(p1);
  for (const TokenRecord& r : trace) writer.on_record(r);
  writer.finish();
  ASSERT_TRUE(writer.ok()) << writer.error();
  EXPECT_EQ(writer.written(), trace.size());
  ASSERT_EQ(write_trace_file(p2, trace), "");
  std::ifstream a(p1, std::ios::binary), b(p2, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(TraceSerialize, TruncatedFileIsRejected) {
  const Trace trace = tie_heavy_trace(3, 4, 33);
  const std::string path = temp_path("truncated.trace");
  ASSERT_EQ(write_trace_file(path, trace), "");
  // Chop the last record in half.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes.resize(bytes.size() - kTraceRecordBytes / 2);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  const ReadTraceResult rd = read_trace_file(path);
  EXPECT_FALSE(rd.ok());
  EXPECT_NE(rd.error.find("truncated"), std::string::npos) << rd.error;
  std::remove(path.c_str());
}

TEST(TraceSerialize, BadMagicAndBadVersionAreRejected) {
  const Trace trace = tie_heavy_trace(2, 2, 44);
  for (const std::size_t corrupt_at : {std::size_t{0}, std::size_t{7}}) {
    const std::string path = temp_path("corrupt.trace");
    ASSERT_EQ(write_trace_file(path, trace), "");
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(corrupt_at));
    f.put('X');
    f.close();
    const ReadTraceResult rd = read_trace_file(path);
    EXPECT_FALSE(rd.ok()) << "corrupt byte " << corrupt_at;
    std::remove(path.c_str());
  }
}

TEST(TraceSerialize, MissingFileIsAnError) {
  const ReadTraceResult rd =
      read_trace_file(temp_path("does_not_exist.trace"));
  EXPECT_FALSE(rd.ok());
}

std::string golden_bytes() {
  std::ifstream in(std::string(CN_TESTDATA_DIR) + "/golden.trace",
                   std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

ReadTraceResult read_bytes(const std::string& bytes, const std::string& name) {
  const std::string path = temp_path(name);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ReadTraceResult rd = read_trace_file(path);
  std::remove(path.c_str());
  return rd;
}

/// Overwrites the little-endian u64 field at `offset` of record `index`
/// of a version-1 file (the golden trace is one).
void put_field(std::string& bytes, std::size_t index, std::size_t offset,
               std::uint64_t v) {
  const std::size_t at =
      kTraceHeaderBytesV1 + index * kTraceRecordBytes + offset;
  for (std::size_t b = 0; b < 8; ++b) {
    bytes[at + b] = static_cast<char>(v >> (8 * b));
  }
}

std::uint64_t get_field(const std::string& bytes, std::size_t index,
                        std::size_t offset) {
  const std::size_t at =
      kTraceHeaderBytesV1 + index * kTraceRecordBytes + offset;
  std::uint64_t v = 0;
  for (std::size_t b = 0; b < 8; ++b) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[at + b]))
         << (8 * b);
  }
  return v;
}

/// Record field offsets of the CNTRACE1 layout.
constexpr std::size_t kTokenAt = 0, kProcessAt = 8, kTInAt = 32, kTOutAt = 40,
                      kFirstSeqAt = 48, kLastSeqAt = 56;

/// A version-2 file carries the run's sink range; a version-1 file (the
/// golden trace) still reads, with range 0; a range wider than 32 bits
/// and an unknown version are rejected.
TEST(TraceSerialize, SinkRangeRoundTripsAndVersionOneReadsAsZero) {
  const Trace trace = tie_heavy_trace(3, 4, 5);
  const std::string path = temp_path("range.trace");
  ASSERT_EQ(write_trace_file(path, trace, 24), "");
  const ReadTraceResult rd = read_trace_file(path);
  ASSERT_TRUE(rd.ok()) << rd.error;
  EXPECT_EQ(rd.sink_range, 24u);
  EXPECT_EQ(rd.trace.size(), trace.size());
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::remove(path.c_str());

  const ReadTraceResult golden = read_bytes(golden_bytes(), "v1.trace");
  ASSERT_TRUE(golden.ok()) << golden.error;
  EXPECT_EQ(golden.sink_range, 0u);
  EXPECT_EQ(golden.trace.size(), 12u);

  std::string wide = bytes;
  wide[20] = 1;  // range |= 2^32
  EXPECT_NE(read_bytes(wide, "wide.trace").error.find("sink range"),
            std::string::npos);
  std::string v3 = bytes;
  v3[7] = '3';
  EXPECT_NE(read_bytes(v3, "v3.trace").error.find("unsupported trace version"),
            std::string::npos);
}

/// A record no producer writes is rejected, naming its index.
TEST(TraceSerialize, CorruptRecordsAreRejectedByIndex) {
  struct Mutation {
    const char* want;
    void (*apply)(std::string&);
  };
  const Mutation mutations[] = {
      {"trace record 0: last_seq < first_seq",
       [](std::string& b) {
         put_field(b, 0, kFirstSeqAt, get_field(b, 0, kLastSeqAt) + 1);
       }},
      {"trace record 3: duplicate token id",
       [](std::string& b) {
         put_field(b, 3, kTokenAt, get_field(b, 1, kTokenAt));
       }},
      {"trace record 0: t_in or t_out is not finite",
       [](std::string& b) {
         put_field(b, 0, kTOutAt,
                   std::bit_cast<std::uint64_t>(
                       std::numeric_limits<double>::quiet_NaN()));
       }},
      {"trace record 5: t_in or t_out is not finite",
       [](std::string& b) {
         put_field(b, 5, kTInAt,
                   std::bit_cast<std::uint64_t>(
                       -std::numeric_limits<double>::infinity()));
       }},
      {"trace record 2: token or process id wider than 32 bits",
       [](std::string& b) { put_field(b, 2, kProcessAt, std::uint64_t{1} << 32); }},
  };
  for (const Mutation& m : mutations) {
    std::string bytes = golden_bytes();
    m.apply(bytes);
    const ReadTraceResult rd = read_bytes(bytes, "mutated.trace");
    EXPECT_FALSE(rd.ok()) << m.want;
    EXPECT_NE(rd.error.find(m.want), std::string::npos) << rd.error;
  }
}

/// Seeded single-byte flips of the golden payload: the reader either
/// rejects the file or yields records every analyzer can take, and the
/// streaming checker agrees with the batch one on them.
TEST(TraceSerialize, ByteFlipsNeverCrash) {
  const std::string golden = golden_bytes();
  ASSERT_GT(golden.size(), kTraceHeaderBytesV1);
  const std::size_t payload = golden.size() - kTraceHeaderBytesV1;
  std::size_t rejected = 0;
  for (std::uint64_t seed = 1; seed <= 512; ++seed) {
    Xoshiro256 rng(seed);
    std::string bytes = golden;
    const std::size_t at = kTraceHeaderBytesV1 + rng.below(payload);
    bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng.below(255)));
    const ReadTraceResult rd = read_bytes(bytes, "flipped.trace");
    if (!rd.ok()) {
      EXPECT_NE(rd.error.find("trace record"), std::string::npos) << rd.error;
      ++rejected;
      continue;
    }
    expect_streaming_matches_batch(rd.trace, "seed " + std::to_string(seed));
  }
  // Flips land in checked fields (ids, times, seqs) often enough.
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, 512u);
}

// ---------------------------------------------------------------------
// Streaming degradation accumulator.
// ---------------------------------------------------------------------

TEST(DegradationAccumulator, MatchesBatchOnFaultedTrace) {
  const Network net = make_bitonic(8);
  WorkloadSpec wl;
  wl.processes = 6;
  wl.tokens_per_process = 6;
  wl.c_min = 1.0;
  wl.c_max = 2.0;
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 3;
  plan.p_token_loss = 0.2;
  plan.p_stuck_balancer = 0.15;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Xoshiro256 rng(seed);
    const TimedExecution exec = generate_workload(net, wl, rng);
    const SimFaults faults = fault::draw_sim_faults(net, exec, plan, seed);
    SimArena arena;
    const SimulationResult sim = simulate(exec, faults, arena);
    ASSERT_TRUE(sim.ok());
    const fault::Degradation batch =
        fault::degradation(sim.trace, net.fan_out());
    fault::DegradationAccumulator acc;
    // Any order: accumulate in trace (plan) order, not completion order.
    for (const TokenRecord& r : sim.trace) acc.on_record(r);
    const fault::Degradation inc = acc.result(net.fan_out());
    EXPECT_DOUBLE_EQ(inc.counting_violation, batch.counting_violation)
        << "seed " << seed;
    EXPECT_DOUBLE_EQ(inc.smoothness_gap, batch.smoothness_gap)
        << "seed " << seed;
    EXPECT_DOUBLE_EQ(inc.smoothness_violation, batch.smoothness_violation)
        << "seed " << seed;
    EXPECT_EQ(acc.records(), sim.trace.size());
  }
}

/// The degradation formula, evaluated over a map in 64-bit arithmetic:
/// sorted values must be {0..n-1}; the smoothness gap runs over the sinks
/// [0, max(fan_out, largest sink + 1)), each absent sink counting zero.
fault::Degradation degradation_formula(const Trace& trace,
                                       std::uint32_t fan_out) {
  fault::Degradation d;
  if (trace.empty()) return d;
  std::vector<Value> values;
  std::map<std::uint64_t, std::uint64_t> counts;
  std::uint64_t largest_sink = 0;
  for (const TokenRecord& r : trace) {
    values.push_back(r.value);
    ++counts[r.sink];
    largest_sink = std::max<std::uint64_t>(largest_sink, r.sink);
  }
  std::sort(values.begin(), values.end());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] != i) d.counting_violation = 1.0;
  }
  const std::uint64_t sinks =
      std::max<std::uint64_t>(fan_out, largest_sink + 1);
  std::uint64_t lo = counts.size() < sinks ? 0 : ~0ull, hi = 0;
  for (const auto& [sink, c] : counts) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  d.smoothness_gap = static_cast<double>(hi - lo);
  d.smoothness_violation = d.smoothness_gap > 1.0 ? 1.0 : 0.0;
  return d;
}

void expect_formula(const Trace& trace, std::uint32_t fan_out,
                    const std::string& what) {
  const fault::Degradation want = degradation_formula(trace, fan_out);
  fault::DegradationAccumulator acc;
  acc.on_records(trace);
  for (const fault::Degradation& got :
       {acc.result(fan_out), fault::degradation(trace, fan_out)}) {
    EXPECT_EQ(got.counting_violation, want.counting_violation) << what;
    EXPECT_EQ(got.smoothness_gap, want.smoothness_gap) << what;
    EXPECT_EQ(got.smoothness_violation, want.smoothness_violation) << what;
  }
}

/// Ids far past the record count go to the side lists, whatever their
/// size, and come back exact: a value or sink that spilled early and
/// reappears once the dense arrays cover it is reconciled with them.
TEST(DegradationAccumulator, MatchesTheFormulaOnSparseIds) {
  const auto record = [](Value value, std::uint32_t sink) {
    TokenRecord r;
    r.value = value;
    r.sink = sink;
    return r;
  };
  // 1500 spills at the first record, then the bitmap grows past it and
  // sets its bit again: a duplicate only the reconciliation sees (the
  // largest value, 1500, is below the 1502 records).
  Trace dup;
  dup.push_back(record(1500, 1500));
  for (Value v = 0; v <= 1500; ++v) {
    dup.push_back(record(v, static_cast<std::uint32_t>(v % 2 == 0 ? 1500 : 7)));
  }
  expect_formula(dup, 8, "spilled duplicate");
  dup.back().value = 1501;  // now exactly {0..1501}
  expect_formula(dup, 8, "spilled value, no duplicate");
  fault::DegradationAccumulator acc;
  acc.on_records(dup);
  EXPECT_EQ(acc.result(8).counting_violation, 0.0);

  Xoshiro256 rng(0x5A11);
  const std::uint64_t huge[] = {0xFFFFFFFFull, 0xFFFFFFFEull, 1ull << 40,
                                ~0ull, 5000};
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng.below(trial % 3 == 0 ? 3000 : 40);
    Trace trace;
    for (std::size_t i = 0; i < n; ++i) {
      Value v = i;
      std::uint64_t sink = i % 8;
      if (rng.below(8) == 0) v = huge[rng.below(5)];
      if (rng.below(8) == 0) v = rng.below(n + 2);  // duplicates and gaps
      if (rng.below(8) == 0) sink = huge[rng.below(5)] & 0xFFFFFFFFull;
      if (rng.below(16) == 0) sink = 1000 + rng.below(3000);
      trace.push_back(record(v, static_cast<std::uint32_t>(sink)));
    }
    for (std::size_t i = trace.size(); i > 1; --i) {
      std::swap(trace[i - 1], trace[rng.below(i)]);
    }
    expect_formula(trace, trial % 2 == 0 ? 8 : 0,
                   "trial " + std::to_string(trial));
  }
}

TEST(DegradationAccumulator, CleanTraceReportsNoViolation) {
  const Trace trace = simulator_trace(8, 4, 4, 2.0, 5);
  fault::DegradationAccumulator acc;
  for (const TokenRecord& r : trace) acc.on_record(r);
  const fault::Degradation d = acc.result(8);
  EXPECT_DOUBLE_EQ(d.counting_violation, 0.0);
  EXPECT_LE(d.smoothness_gap, 1.0);
  const fault::Degradation batch = fault::degradation(trace, 8);
  EXPECT_DOUBLE_EQ(d.smoothness_gap, batch.smoothness_gap);
}

/// The bitmap grows geometrically, so its size says nothing about the
/// largest value: reading the largest value off it would flag a clean
/// stream and could miss a gap.
TEST(DegradationAccumulator, LargestValueIsNotReadOffTheBitmap) {
  const auto record = [](Value value) {
    TokenRecord r;
    r.value = value;
    return r;
  };
  Xoshiro256 rng(0xB17);
  for (const Value n : {Value{1}, Value{2}, Value{1000}, Value{1500},
                        Value{3000}, Value{5000}}) {
    const std::string what = "n = " + std::to_string(n);
    // 0..n-2 and n: n records, one value out of range.
    Trace gap;
    for (Value v = 0; v + 1 < n; ++v) gap.push_back(record(v));
    gap.push_back(record(n));
    fault::DegradationAccumulator acc;
    acc.on_records(gap);
    EXPECT_EQ(acc.result(8).counting_violation, 1.0) << what;
    expect_formula(gap, 8, what + " gap");

    // 0..n-1 ascending doubles the bitmap past n (to 1024 for n = 1000),
    // then in a shuffled order: no violation either way.
    Trace full;
    for (Value v = 0; v < n; ++v) full.push_back(record(v));
    for (int pass = 0; pass < 2; ++pass) {
      acc.reset();
      acc.on_records(full);
      EXPECT_EQ(acc.result(8).counting_violation, 0.0) << what;
      expect_formula(full, 8, what + " full");
      for (std::size_t i = full.size(); i > 1; --i) {
        std::swap(full[i - 1], full[rng.below(i)]);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Relocated batch API (the forwarding headers must keep everything
// reachable, including the exhaustive Lemma 5.1 checker).
// ---------------------------------------------------------------------

TEST(RelocatedConsistency, MinRemovalStillAgreesWithLemma51) {
  const Trace trace = simulator_trace(8, 5, 4, 3.5, 2);
  const ConsistencyReport rep = analyze(trace);
  ASSERT_LE(rep.non_linearizable.size(), kMaxExhaustiveCandidates);
  EXPECT_EQ(min_removal_for_linearizability(trace),
            rep.non_linearizable.size());
  const Trace cleaned = remove_tokens(trace, rep.non_linearizable);
  EXPECT_EQ(cleaned.size(), trace.size() - rep.non_linearizable.size());
  EXPECT_TRUE(is_linearizable(cleaned));
}

}  // namespace
