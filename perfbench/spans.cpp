#include "spans.hpp"

#include <fstream>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSweepCall: return "engine.sweep_stats";
    case Layer::kTrial: return "engine.trial";
    case Layer::kWorkload: return "sim.workload";
    case Layer::kInterpret: return "sim.interpret";
    case Layer::kCheck: return "trace.check";
    case Layer::kRoundTrip: return "client.round_trip";
    case Layer::kSubmitBatch: return "service.submit_batch";
    case Layer::kTrySubmit: return "service.try_submit";
    case Layer::kWait: return "client.wait";
    case Layer::kLate: return "gen.late";
    case Layer::kStop: return "service.stop";
    case Layer::kCount: break;
  }
  return "unknown";
}

std::uint64_t SpanLog::begin(Layer layer, std::uint64_t op,
                             std::uint64_t start_ns) {
  const std::uint64_t parent = open_.empty() ? kNoParent : open_.back().id;
  open_.push_back(Raw{next_id_, parent, op, start_ns, 0, layer});
  return next_id_++;
}

void SpanLog::end(std::uint64_t end_ns) {
  Raw raw = open_.back();
  open_.pop_back();
  raw.end_ns = end_ns;
  keep(raw);
}

void SpanLog::record(Layer layer, std::uint64_t op, std::uint64_t start_ns,
                     std::uint64_t end_ns) {
  const std::uint64_t parent = open_.empty() ? kNoParent : open_.back().id;
  keep(Raw{next_id_++, parent, op, start_ns, end_ns, layer});
}

void SpanLog::keep(const Raw& raw) {
  const auto i = static_cast<std::size_t>(raw.layer);
  totals_[i] += raw.end_ns - raw.start_ns;
  ++counts_[i];
  if (raw_.size() < cap_) raw_.push_back(raw);
}

void SpanLog::absorb_totals(const SpanLog& other) {
  for (std::size_t i = 0; i < totals_.size(); ++i) {
    totals_[i] += other.totals_[i];
    counts_[i] += other.counts_[i];
  }
}

void SpanLog::write_jsonl(std::ostream& os, std::uint64_t epoch_ns) const {
  for (const Raw& r : raw_) {
    os << "{\"thread\":" << thread_ << ",\"id\":" << r.id << ",\"parent\":";
    if (r.parent == kNoParent) {
      os << "null";
    } else {
      os << r.parent;
    }
    os << ",\"name\":\"" << layer_name(r.layer) << "\",\"op\":" << r.op
       << ",\"start_ns\":" << (r.start_ns - epoch_ns)
       << ",\"end_ns\":" << (r.end_ns - epoch_ns) << "}\n";
  }
}

bool write_spans(const std::string& path, const std::vector<const SpanLog*>& logs,
                 std::uint64_t epoch_ns) {
  std::ofstream os(path);
  for (const SpanLog* log : logs) log->write_jsonl(os, epoch_ns);
  os.flush();
  return static_cast<bool>(os);
}

}  // namespace perfbench
