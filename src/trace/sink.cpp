#include "trace/sink.hpp"

#include <algorithm>
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

void merge_issue_ordered(std::vector<Trace>& lanes, TraceSink& sink) {
  // Tournament-free k-way merge: k is small (shards or worker threads),
  // so a linear scan for the minimum head beats heap bookkeeping, and
  // batching the output amortizes the sink dispatch the same way the
  // producers' own release runs do.
  constexpr std::size_t kBatch = 1024;
  std::vector<std::size_t> cursor(lanes.size(), 0);
  std::vector<TokenRecord> batch;
  batch.reserve(kBatch);
  for (;;) {
    std::size_t best = lanes.size();
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      if (cursor[i] >= lanes[i].size()) continue;
      if (best == lanes.size() ||
          issue_order_less(lanes[i][cursor[i]], lanes[best][cursor[best]])) {
        best = i;
      }
    }
    if (best == lanes.size()) break;
    batch.push_back(lanes[best][cursor[best]++]);
    if (batch.size() == kBatch) {
      sink.on_records(batch);
      batch.clear();
    }
  }
  if (!batch.empty()) sink.on_records(batch);
  for (Trace& lane : lanes) lane.clear();
}

void append_issue_ordered(Trace& lane, const TokenRecord& record) {
  if (lane.empty() || !issue_order_less(record, lane.back())) {
    lane.push_back(record);
    return;
  }
  lane.insert(
      std::upper_bound(lane.begin(), lane.end(), record, issue_order_less),
      record);
}

}  // namespace cn
