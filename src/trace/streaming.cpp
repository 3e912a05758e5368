#include "trace/streaming.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

namespace cn {

void StreamingConsistency::reset() {
  finished_ = false;
  total_ = 0;
  key_first_ = 0;
  key_last_ = 0;
  key_token_ = 0;
  has_key_ = false;
  frontier_.clear();
  head_ = 0;
  max_completed_ = 0;
  any_completed_ = false;
  process_slots_.clear();
  procs_.clear();
  nl_.clear();
  nsc_.clear();
  peak_pending_ = 0;
  report_ = ConsistencyReport{};
}

void StreamingConsistency::on_record(const TokenRecord& record) {
  ingest(record);
}

void StreamingConsistency::on_records(std::span<const TokenRecord> records) {
  for (const TokenRecord& r : records) ingest(r);
}

void StreamingConsistency::ingest(const TokenRecord& record) {
  if (finished_) {
    throw std::logic_error(
        "StreamingConsistency: on_record after finish (reset to reuse)");
  }
  check_arrival_order(record);
  ++total_;
  sweep_non_linearizable(record);
  // Per process, the issue-order subsequence is the arrival subsequence,
  // so the SC prefix-max check finalizes immediately (Observation 2.1).
  ProcState& ps = proc_state(record.process);
  if (ps.any && ps.prefix_max > record.value) nsc_.push_back(record.token);
  ps.prefix_max =
      ps.any ? std::max(ps.prefix_max, record.value) : record.value;
  ps.any = true;
  const std::size_t pending = frontier_.size() - head_;
  if (pending > peak_pending_) peak_pending_ = pending;
}

void StreamingConsistency::check_arrival_order(const TokenRecord& record) {
  if (has_key_ &&
      std::tie(record.first_seq, record.last_seq, record.token) <
          std::tie(key_first_, key_last_, key_token_)) {
    throw std::invalid_argument(
        "StreamingConsistency: records must arrive in non-decreasing "
        "(first_seq, last_seq, token) issue order");
  }
  key_first_ = record.first_seq;
  key_last_ = record.last_seq;
  key_token_ = record.token;
  has_key_ = true;
}

void StreamingConsistency::sweep_non_linearizable(const TokenRecord& record) {
  // Fold every frontier entry that completely precedes this record into
  // the running max: a prefix of the pending run, which is sorted by
  // last_seq. Because arriving first_seqs never decrease, a folded entry
  // completely precedes every later arrival too, so the single running
  // max stays exact (see header).
  while (head_ < frontier_.size() &&
         frontier_[head_].last_seq < record.first_seq) {
    const Value v = frontier_[head_++].value;
    max_completed_ = any_completed_ ? std::max(max_completed_, v) : v;
    any_completed_ = true;
  }
  if (any_completed_ && max_completed_ > record.value) {
    nl_.push_back(record.token);
  }
  // Drop the folded prefix once nothing else is left, or once it is at
  // least half the vector and past a few entries: each live entry is then
  // moved at most once per fold on average, and a narrow frontier is not
  // moved on every arrival.
  constexpr std::size_t kMinCompact = 32;
  if (head_ == frontier_.size() ||
      (head_ >= kMinCompact && 2 * head_ >= frontier_.size())) {
    frontier_.erase(frontier_.begin(),
                    frontier_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  const Open entry{record.last_seq, record.value};
  if (frontier_.empty() || frontier_.back().last_seq <= entry.last_seq) {
    frontier_.push_back(entry);
    return;
  }
  frontier_.insert(
      std::upper_bound(frontier_.begin() + static_cast<std::ptrdiff_t>(head_),
                       frontier_.end(), entry,
                       [](const Open& a, const Open& b) {
                         return a.last_seq < b.last_seq;
                       }),
      entry);
}

StreamingConsistency::ProcState& StreamingConsistency::proc_state(
    ProcessId process) {
  const std::uint32_t slot = process_slots_.slot(process);
  if (slot == procs_.size()) procs_.emplace_back();
  return procs_[slot];
}

void StreamingConsistency::finish() {
  if (finished_) return;
  // NL flags are pushed in arrival (first_seq) order, SC flags in
  // arrival-per-process order; batch analyze() reports both ascending by
  // token id.
  std::sort(nl_.begin(), nl_.end());
  std::sort(nsc_.begin(), nsc_.end());
  report_.total = total_;
  report_.non_linearizable = std::move(nl_);
  report_.non_sequentially_consistent = std::move(nsc_);
  if (report_.total > 0) {
    report_.f_nl = static_cast<double>(report_.non_linearizable.size()) /
                   static_cast<double>(report_.total);
    report_.f_nsc =
        static_cast<double>(report_.non_sequentially_consistent.size()) /
        static_cast<double>(report_.total);
  }
  finished_ = true;
}

}  // namespace cn
