// In-memory span recording for the traced runs. Spans are recorded by the
// benchmark's own code around calls into each layer (the program itself
// is not instrumented); each span has a layer name, an operation id shared
// by every span of one trial or request, its parent, and steady-clock
// start/end. Per-layer totals cover every span; the raw spans are kept up
// to a cap and written out once, when the run ends.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <span>
#include <vector>

#include "common.hpp"
#include "trace/sink.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kSweepCall,    ///< One engine::sweep_stats call.
  kTrial,        ///< One backend run inside the engine.
  kWorkload,     ///< sim workload generation.
  kInterpret,    ///< sim/core interpreter (includes its sink calls).
  kCheck,        ///< trace analysis: sink calls or batch analyze().
  kRoundTrip,    ///< Client submit + wait for every slot.
  kSubmitBatch,  ///< CountingService::submit_batch.
  kTrySubmit,    ///< CountingService::try_submit.
  kWait,         ///< Client wait_done over the batch's slots.
  kLate,         ///< Open-loop generator: scheduled to actual send.
  kStop,         ///< CountingService::stop (drain + merge + verdict).
  kCount
};

const char* layer_name(Layer layer);

class SpanLog {
 public:
  static constexpr std::uint64_t kNoParent = ~std::uint64_t{0};

  explicit SpanLog(std::uint32_t thread = 0, std::size_t cap = 1 << 15)
      : thread_(thread), cap_(cap) {}

  /// Opens a span nested in the innermost open one; returns its id.
  /// Callers that already read the clock pass the time in.
  std::uint64_t begin(Layer layer, std::uint64_t op,
                      std::uint64_t start_ns = now_ns());
  /// Closes the innermost open span.
  void end(std::uint64_t end_ns = now_ns());
  /// Records an already finished span with explicit times, as a child of
  /// the innermost open span.
  void record(Layer layer, std::uint64_t op, std::uint64_t start_ns,
              std::uint64_t end_ns);

  std::uint64_t total_ns(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }
  std::uint64_t count(Layer layer) const {
    return counts_[static_cast<std::size_t>(layer)];
  }

  /// Folds another log's totals into this one (raw spans stay put).
  void absorb_totals(const SpanLog& other);

  /// One JSON object per raw span.
  void write_jsonl(std::ostream& os, std::uint64_t epoch_ns) const;

 private:
  struct Raw {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t op;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    Layer layer;
  };

  void keep(const Raw& raw);

  std::uint32_t thread_;
  std::size_t cap_;
  std::uint64_t next_id_ = 0;
  std::vector<Raw> open_;
  std::vector<Raw> raw_;
  std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)> totals_{};
  std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)> counts_{};
};

class Scope {
 public:
  Scope(SpanLog& log, Layer layer, std::uint64_t op) : log_(log) {
    log_.begin(layer, op);
  }
  ~Scope() { log_.end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
};

/// Forwards every record to `inner` inside a trace.check span: wrapped
/// around the consistency sink, it splits the analysis out of the span
/// of whatever produces the records.
class TimedSink final : public cn::TraceSink {
 public:
  TimedSink(cn::TraceSink& inner, SpanLog& log, std::uint64_t op)
      : inner_(inner), log_(log), op_(op) {}

  void on_record(const cn::TokenRecord& record) override {
    Scope s(log_, Layer::kCheck, op_);
    inner_.on_record(record);
  }
  void on_records(std::span<const cn::TokenRecord> records) override {
    Scope s(log_, Layer::kCheck, op_);
    inner_.on_records(records);
  }
  void finish() override {
    Scope s(log_, Layer::kCheck, op_);
    inner_.finish();
  }

 private:
  cn::TraceSink& inner_;
  SpanLog& log_;
  std::uint64_t op_;
};

/// Writes every log's raw spans to `path` (JSON lines); returns false when
/// the file cannot be written.
bool write_spans(const std::string& path, const std::vector<const SpanLog*>& logs,
                 std::uint64_t epoch_ns);

}  // namespace perfbench
