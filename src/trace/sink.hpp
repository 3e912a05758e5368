// TraceSink: push-based consumption of TokenRecords as tokens exit the
// network, instead of materialize-then-analyze.
//
// Producers emit records in ISSUE order (non-decreasing (first_seq,
// last_seq, token)) — the order the batch analyzers sweep in, valid for
// any trace. Completion events are naturally ordered by last_seq instead,
// so producers reorder: the simulators and the msg kernel hold each
// completed record in an IssueWindowBuffer until no still-open operation
// has an earlier first_seq (they track their open-token set exactly, so
// the buffer is bounded by the open-op concurrency), and thread-based
// producers k-way merge per-thread partial traces — already sorted by
// both keys, since each thread's operations are sequential — by the same
// key. See trace/streaming.hpp for the consumer side of this contract,
// and the feed_* helpers below for replaying a materialized Trace into a
// sink in either order.
//
// Batching: records usually become emittable in RUNS — a wave of tokens
// exits, a reorder buffer drains, a merged partial flushes. on_records()
// delivers such a run in one virtual call (default: loop over
// on_record()), so sinks that can ingest a contiguous span amortize the
// per-record dispatch that made per-token streaming slower than
// collect-then-analyze. The span contents obey the same issue-order
// contract, both inside a batch and across batches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace cn {

/// Consumes one completed operation at a time. finish() is called exactly
/// once, after the last record; implementations seal aggregates there
/// (sort flag lists, patch file headers, ...).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_record(const TokenRecord& record) = 0;
  /// Batched delivery: equivalent to on_record(r) for each r in order.
  /// Producers prefer this form; sinks override it to amortize dispatch.
  virtual void on_records(std::span<const TokenRecord> records) {
    for (const TokenRecord& r : records) on_record(r);
  }
  virtual void finish() {}
};

/// Compatibility shim: collects records into a Trace, exactly as the
/// pre-streaming producers did with push_back.
class CollectSink final : public TraceSink {
 public:
  void on_record(const TokenRecord& record) override {
    trace_.push_back(record);
  }

  void on_records(std::span<const TokenRecord> records) override {
    trace_.insert(trace_.end(), records.begin(), records.end());
  }

  const Trace& trace() const noexcept { return trace_; }
  Trace take() { return std::move(trace_); }
  void reset() { trace_.clear(); }

 private:
  Trace trace_;
};

/// Fans each record out to two sinks (e.g. consistency checking and
/// degradation accounting in one pass). Does not own its children.
class TeeSink final : public TraceSink {
 public:
  TeeSink(TraceSink& first, TraceSink& second)
      : first_(first), second_(second) {}

  void on_record(const TokenRecord& record) override {
    first_.on_record(record);
    second_.on_record(record);
  }

  void on_records(std::span<const TokenRecord> records) override {
    first_.on_records(records);
    second_.on_records(records);
  }

  void finish() override {
    first_.finish();
    second_.finish();
  }

 private:
  TraceSink& first_;
  TraceSink& second_;
};

/// Issue order: (first_seq, last_seq, token). This is the batch
/// analyzers' canonical per-process order; sorting the whole trace by it
/// is valid for any trace, including ones whose processes overlap
/// themselves (e.g. duplicated-message faults).
bool issue_order_less(const TokenRecord& a, const TokenRecord& b) noexcept;

/// Replays a materialized trace into a sink, sorted by issue_order_less
/// (the whole trace as one on_records batch). Does not call
/// sink.finish(); the caller decides when the stream ends.
void feed_issue_order(const Trace& trace, TraceSink& sink);

/// A lane of records kept in fixed-size blocks of kBlock records, each
/// block reserved whole when the lane first reaches it: an append never
/// copies, moves or double-holds the records already stored, and a
/// record stays where it was stored unless a late record is inserted in
/// front of it. Every block is full but the last, so record i is slot
/// i % kBlock of block i / kBlock. The service's per-shard lanes and the
/// concurrent harness's per-thread partials are RecordLanes, so their
/// recording memory is paid block by block as it fills, with no growth
/// spike.
class RecordLane {
 public:
  static constexpr std::size_t kBlock = 1024;  ///< 64 KiB of records.

  void push_back(const TokenRecord& record) {
    if (blocks_.empty() || blocks_.back().size() == kBlock) {
      Trace block;
      block.reserve(kBlock);  // Before it joins: no block is ever empty.
      blocks_.push_back(std::move(block));
    }
    blocks_.back().push_back(record);
  }

  bool empty() const noexcept { return blocks_.empty(); }
  std::size_t size() const noexcept {
    return empty() ? 0 : (blocks_.size() - 1) * kBlock + blocks_.back().size();
  }
  TokenRecord& operator[](std::size_t i) {
    return blocks_[i / kBlock][i % kBlock];
  }
  const TokenRecord& operator[](std::size_t i) const {
    return blocks_[i / kBlock][i % kBlock];
  }
  const TokenRecord& front() const { return blocks_.front().front(); }
  const TokenRecord& back() const { return blocks_.back().back(); }

  /// The records in order, as contiguous non-empty blocks.
  const std::vector<Trace>& blocks() const noexcept { return blocks_; }

  /// Empties the lane and frees its blocks.
  void clear() noexcept { blocks_.clear(); }

 private:
  std::vector<Trace> blocks_;
};

/// K-way merges per-producer lanes — each already sorted by
/// issue_order_less — into one issue-ordered stream, emitted in bounded
/// on_records() batches. Does not call sink.finish(). Each lane is walked
/// block by block, and consumed (left empty). A per-thread closed-loop
/// partial is sorted as it is recorded, since one thread's operations
/// are sequential. A lane that several submitters feed is not: a
/// submitter can draw its first_seq before another and push its request
/// after it. Such a lane stays sorted only if every record goes in
/// through append_issue_ordered.
void merge_issue_ordered(std::vector<RecordLane>& lanes, TraceSink& sink);

/// Appends `record` to `lane`, which is sorted by issue_order_less, and
/// keeps it sorted. A record that does not precede the lane's last one
/// (every record, when one thread submits) costs one comparison and a
/// push_back. One that does is inserted at its place, found by binary
/// search, after every record it does not precede; that moves the
/// records behind it, and only those, one slot back — as many as were
/// appended after it while it was in flight.
void append_issue_ordered(RecordLane& lane, const TokenRecord& record);

/// Producer-side reorder window: event-driven producers complete
/// operations in last_seq order, but the sink contract is issue order.
/// Unlike a downstream consumer, the producer knows its open-operation
/// set exactly, so it can release a completed record the moment no
/// still-open operation (and no future issue, whose first_seq exceeds
/// every seq drawn so far) can precede it.
///
/// Every producer here is MONOTONE — it calls open() in issue order,
/// because its first_seqs are drawn strictly increasing from one counter
/// (the simulators' step counter, the msg kernel's delivery count). That
/// collapses the reorder problem: the issue order IS the open order, so
/// emission is a cursor over a ring of issue slots. No comparisons, O(1)
/// per record, and a drain emits each release run as one zero-copy span
/// straight out of the ring.
///
/// Protocol: pos = open() when an operation's first_seq is drawn, then
/// exactly one of close(pos, record) (normal completion) or drop(pos)
/// (the operation vanishes: lost token, crashed process). drain()
/// releases every slot before the first still-open position — exactly
/// "first_seq below the minimum open first_seq", since position order
/// equals first_seq order — and runs per close/drop unless `deferred`.
/// flush() at end of stream emits the completed residue held back by
/// never-resolved opens.
///
/// Wave producers defer and drain once per 4096 steps. Deferring is
/// release-EQUIVALENT, not just order-preserving: the minimum open
/// position only ever grows, so a record emittable now is still
/// emittable (ahead of everything buffered later) at the next drain —
/// the concatenation of batches is the identical record sequence either
/// way.
///
/// Memory is the peak issued-but-unemitted window: O(open concurrency)
/// for per-close drains, up to one drain period of completions when
/// deferred.
/// The ring grows by doubling and is reusable across calls via reset().
class IssueWindowBuffer {
 public:
  IssueWindowBuffer() = default;  ///< Must reset() before use.
  explicit IssueWindowBuffer(TraceSink& out, bool deferred = false)
      : out_(&out), deferred_(deferred) {}

  /// Rebinds the sink and empties the window, keeping ring capacity.
  void reset(TraceSink& out, bool deferred) {
    out_ = &out;
    deferred_ = deferred;
    next_ = 0;
    head_ = 0;
    peak_window_ = 0;
  }

  std::uint64_t open() {
    if (next_ - head_ == slots_.size()) grow();
    state_[index(next_)] = Slot::kOpen;
    const auto window = static_cast<std::size_t>(next_ - head_) + 1;
    if (window > peak_window_) peak_window_ = window;
    return next_++;
  }

  void close(std::uint64_t pos, const TokenRecord& record) {
    slots_[index(pos)] = record;
    state_[index(pos)] = Slot::kClosed;
    if (!deferred_) drain();
  }

  void drop(std::uint64_t pos) {
    state_[index(pos)] = Slot::kDropped;
    if (!deferred_) drain();
  }

  /// Releases every slot before the first still-open position.
  void drain() {
    std::uint64_t stop = head_;
    while (stop < next_ && state_[index(stop)] != Slot::kOpen) ++stop;
    emit_closed(head_, stop);
    head_ = stop;
  }

  void flush() {
    emit_closed(head_, next_);
    head_ = next_;
  }

  /// High-water mark of issued-but-unemitted operations — the ring
  /// footprint of a streaming run, sampled at each open.
  std::size_t peak_window() const noexcept { return peak_window_; }

 private:
  enum class Slot : std::uint8_t { kOpen, kClosed, kDropped };

  std::size_t index(std::uint64_t pos) const noexcept {
    return static_cast<std::size_t>(pos) & (slots_.size() - 1);
  }

  /// Emits the closed slots in [from, to) as contiguous spans, breaking
  /// runs at non-closed slots and at the ring's wrap point.
  void emit_closed(std::uint64_t from, std::uint64_t to) {
    std::uint64_t run = from;
    for (std::uint64_t p = from; p < to; ++p) {
      if (state_[index(p)] != Slot::kClosed) {
        emit(run, p);
        run = p + 1;
      } else if (index(p) == slots_.size() - 1) {
        emit(run, p + 1);
        run = p + 1;
      }
    }
    emit(run, to);
  }

  void emit(std::uint64_t from, std::uint64_t to) {
    if (from >= to) return;
    out_->on_records(std::span<const TokenRecord>(
        slots_.data() + index(from), static_cast<std::size_t>(to - from)));
  }

  void grow() {
    const std::size_t cap = slots_.empty() ? 64 : slots_.size() * 2;
    std::vector<TokenRecord> slots(cap);
    std::vector<Slot> state(cap);
    for (std::uint64_t p = head_; p < next_; ++p) {
      slots[static_cast<std::size_t>(p) & (cap - 1)] = slots_[index(p)];
      state[static_cast<std::size_t>(p) & (cap - 1)] = state_[index(p)];
    }
    slots_.swap(slots);
    state_.swap(state);
  }

  TraceSink* out_ = nullptr;
  bool deferred_ = false;
  std::vector<TokenRecord> slots_;  ///< Power-of-two ring of issue slots.
  std::vector<Slot> state_;
  std::uint64_t next_ = 0;  ///< Next issue position.
  std::uint64_t head_ = 0;  ///< First unemitted position.
  std::size_t peak_window_ = 0;
};

}  // namespace cn
