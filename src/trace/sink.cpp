#include "trace/sink.hpp"

#include <algorithm>
#include <cstddef>
#include <ranges>
#include <tuple>

namespace cn {

bool issue_order_less(const TokenRecord& a, const TokenRecord& b) noexcept {
  return std::tie(a.first_seq, a.last_seq, a.token) <
         std::tie(b.first_seq, b.last_seq, b.token);
}

bool completion_order_less(const TokenRecord& a,
                           const TokenRecord& b) noexcept {
  return std::tie(a.last_seq, a.token) < std::tie(b.last_seq, b.token);
}

namespace {

template <typename Less>
void feed_sorted(const Trace& trace, TraceSink& sink, Less less) {
  // Both orders are total (token ids break every tie), so the sorted copy
  // is deterministic; delivering it as one batch lets span-aware sinks
  // skip the per-record virtual dispatch.
  Trace sorted(trace);
  std::sort(sorted.begin(), sorted.end(), less);
  sink.on_records(sorted);
}

}  // namespace

void feed_issue_order(const Trace& trace, TraceSink& sink) {
  feed_sorted(trace, sink, issue_order_less);
}

void feed_completion_order(const Trace& trace, TraceSink& sink) {
  feed_sorted(trace, sink, completion_order_less);
}

void merge_issue_ordered(std::vector<RecordLane>& lanes, TraceSink& sink) {
  // Tournament-free k-way merge: k is small (shards or worker threads),
  // so a linear scan for the minimum head beats heap bookkeeping, and
  // batching the output amortizes the sink dispatch the same way the
  // producers' own release runs do. Each head walks its lane's current
  // block by pointer. Exhausted lanes leave the scan; the rest keep their
  // order, so a tie (none arise: the key is total) would still go to the
  // lowest lane.
  constexpr std::size_t kBatch = 1024;
  struct Head {
    const TokenRecord* at;
    const TokenRecord* block_end;
    std::vector<Trace>::const_iterator next_block, end_block;
  };
  std::vector<Head> heads;
  heads.reserve(lanes.size());
  for (const RecordLane& lane : lanes) {
    if (lane.empty()) continue;
    const std::vector<Trace>& blocks = lane.blocks();
    heads.push_back({blocks.front().data(),
                     blocks.front().data() + blocks.front().size(),
                     blocks.begin() + 1, blocks.end()});
  }
  std::vector<TokenRecord> batch;
  batch.reserve(kBatch);
  while (!heads.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < heads.size(); ++i) {
      if (issue_order_less(*heads[i].at, *heads[best].at)) best = i;
    }
    Head& head = heads[best];
    batch.push_back(*head.at);
    if (++head.at == head.block_end) {
      if (head.next_block == head.end_block) {
        heads.erase(heads.begin() + static_cast<std::ptrdiff_t>(best));
      } else {
        head.at = head.next_block->data();
        head.block_end = head.at + head.next_block->size();
        ++head.next_block;
      }
    }
    if (batch.size() == kBatch) {
      sink.on_records(batch);
      batch.clear();
    }
  }
  if (!batch.empty()) sink.on_records(batch);
  for (RecordLane& lane : lanes) lane.clear();
}

void append_issue_ordered(RecordLane& lane, const TokenRecord& record) {
  if (lane.empty() || !issue_order_less(record, lane.back())) {
    lane.push_back(record);
    return;
  }
  // The first record `record` precedes; it and everything behind it
  // shift one slot back into the room a push_back makes, and nothing in
  // front of them moves.
  const std::size_t at = *std::ranges::partition_point(
      std::views::iota(std::size_t{0}, lane.size()),
      [&](std::size_t i) { return !issue_order_less(record, lane[i]); });
  lane.push_back(record);
  for (std::size_t i = lane.size() - 1; i > at; --i) lane[i] = lane[i - 1];
  lane[at] = record;
}

}  // namespace cn
