// StreamingConsistency: the batch analyze() of trace/consistency.hpp
// recomputed incrementally, one TokenRecord at a time, in memory
// proportional to the number of concurrently open operations (O(processes)
// for closed-loop workloads) instead of O(tokens).
//
// Arrival-order contract: records arrive in ISSUE order — non-decreasing
// (first_seq, last_seq, token). That is the order the batch analyzers
// sweep in, it is valid for ANY trace (including processes that overlap
// themselves under duplicated-message faults), and every producer in this
// repository emits it: the simulators and the msg kernel reorder their
// completion events through a bounded buffer (they know their open-token
// set exactly), and the thread-based producers k-way merge per-thread
// partials by the same key. feed_issue_order() replays a materialized
// trace in this order. A violated contract throws std::invalid_argument —
// the checker refuses to silently diverge from batch analyze().
//
// Why this is exact (paper Section 5.1, Observation 2.1):
//
//   Non-linearizability. Token T is flagged iff some T' COMPLETELY
//   PRECEDES it (T'.last_seq < T.first_seq) with a larger value. In issue
//   order every such T' has already arrived when T does (T'.first_seq <=
//   T'.last_seq < T.first_seq), so the flag is decided AT ARRIVAL from a
//   running max over completed predecessors. Arrivals not yet known to
//   completely precede the newest record (the "pending frontier", a run
//   sorted by last_seq) are exactly the operations whose windows still
//   overlap the sweep point — bounded by the open-op concurrency, never
//   the trace length. Folding is monotone: an entry is folded into the
//   running max only when the sweep point (the arriving first_seq, which
//   never decreases) passes its last_seq, so the max never includes an
//   operation that overlaps a later arrival. The folded entries are
//   therefore always a prefix of the run: a head cursor steps over them.
//   An arrival that ends no earlier than every pending entry is
//   appended; any other is inserted by binary search, moving the entries
//   that end after it — O(pending) where a binary heap costs
//   O(log pending), a trade that DESIGN.md §5d measures.
//
//   Sequential consistency. Observation 2.1 reduces SC to a per-process
//   check: each process's values, in issue order, must be increasing.
//   Per process, the arrival subsequence IS issue order, so a per-process
//   prefix max finalizes every record immediately — O(1) state per
//   process, and ties agree with the batch analyzer because both use the
//   same total key (first_seq, last_seq, token).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "trace/consistency.hpp"
#include "trace/sink.hpp"
#include "util/id_slots.hpp"

namespace cn {

class StreamingConsistency final : public TraceSink {
 public:
  StreamingConsistency() { reset(); }

  /// Clears all state for reuse (keeps buffer capacity).
  void reset();

  void on_record(const TokenRecord& record) override;
  /// Batched arrival: one virtual call per producer wave, then the
  /// non-virtual per-record pipeline.
  void on_records(std::span<const TokenRecord> records) override;
  void finish() override;

  /// The report; byte-identical to analyze() on the same records.
  /// Valid only after finish().
  const ConsistencyReport& report() const noexcept { return report_; }
  bool finished() const noexcept { return finished_; }

  /// Records seen so far (valid at any time).
  std::size_t total() const noexcept { return total_; }

  /// High-water mark of the pending frontier. For a closed-loop workload
  /// this is O(processes); it is the "trace memory" of a streaming run.
  std::size_t peak_pending() const noexcept { return peak_pending_; }

 private:
  /// Frontier entry: an arrived operation not yet known to completely
  /// precede the newest arrival.
  struct Open {
    std::uint64_t last_seq = 0;
    Value value = 0;
  };

  struct ProcState {
    bool any = false;
    Value prefix_max = 0;
  };

  void ingest(const TokenRecord& record);
  void check_arrival_order(const TokenRecord& record);
  void sweep_non_linearizable(const TokenRecord& record);
  ProcState& proc_state(ProcessId process);

  bool finished_ = false;
  std::size_t total_ = 0;

  // Arrival-order watermark: the issue key of the previous arrival.
  std::uint64_t key_first_ = 0;
  std::uint64_t key_last_ = 0;
  TokenId key_token_ = 0;
  bool has_key_ = false;

  // Non-linearizability sweep. The frontier is frontier_[head_, end),
  // sorted by last_seq; the entries before head_ are folded, and are
  // dropped once they are at least half the vector.
  std::vector<Open> frontier_;
  std::size_t head_ = 0;
  Value max_completed_ = 0;
  bool any_completed_ = false;

  // Sequential-consistency state (per-process prefix maxima), indexed by
  // the process's slot.
  IdSlots process_slots_;
  std::vector<ProcState> procs_;

  std::vector<TokenId> nl_;
  std::vector<TokenId> nsc_;
  std::size_t peak_pending_ = 0;
  ConsistencyReport report_;
};

}  // namespace cn
