// Persistent traces: a versioned little-endian binary format so a run can
// be recorded once and re-analyzed later (the `replay` backend,
// bench_sweep --record/--replay). Following lineage-driven replay systems,
// the file is a flat history: a fixed header plus one fixed-width record
// per completed operation, in the order the producer emitted them.
//
// Layout (all fields little-endian, independent of host endianness):
//   bytes 0..7   magic "CNTRACE2" (version is the trailing byte)
//   bytes 8..15  u64 record count (patched on finish)
//   bytes 16..23 u64 sink range: the run's records name sinks in
//                [0, range); 0 when the run has no fixed sink set
//   then count records of 64 bytes each:
//     u64 token, u64 process, u32 source, u32 sink, u64 value,
//     u64 bit_cast(t_in), u64 bit_cast(t_out), u64 first_seq, u64 last_seq
// Version 1 ("CNTRACE1") files have no sink range (a 16-byte header);
// they still read, with range 0. A reader rejects any other magic or
// version, a sink range wider than 32 bits, any file whose size is not
// exactly header + 64 * count (truncation or trailing garbage), and,
// naming its index, any record that no producer writes: last_seq <
// first_seq, a t_in or t_out that is not finite, a token or process id
// wider than 32 bits, or a repeated token id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>

#include "trace/sink.hpp"
#include "trace/trace.hpp"
#include "util/id_slots.hpp"

namespace cn {

inline constexpr char kTraceMagic[8] = {'C', 'N', 'T', 'R', 'A', 'C', 'E', '2'};
inline constexpr std::size_t kTraceHeaderBytes = 24;
inline constexpr std::size_t kTraceHeaderBytesV1 = 16;
inline constexpr std::size_t kTraceRecordBytes = 64;

/// Sink that writes records straight to a file. I/O errors latch into
/// error() instead of throwing, so a failed disk does not masquerade as a
/// backend crash; callers must check ok() after finish().
class TraceWriter final : public TraceSink {
 public:
  explicit TraceWriter(const std::string& path, std::uint32_t sink_range = 0);

  void on_record(const TokenRecord& record) override;
  /// Patches the record count into the header and flushes.
  void finish() override;

  bool ok() const noexcept { return error_.empty(); }
  const std::string& error() const noexcept { return error_; }
  std::uint64_t written() const noexcept { return written_; }

 private:
  std::ofstream out_;
  std::string path_;
  std::string error_;
  std::uint64_t written_ = 0;
  bool finished_ = false;
};

/// Streaming reader for the same format. Validates header and exact file
/// size up front; next() then yields records one at a time, checking each
/// (see the format notes above). To catch a repeated token id it keeps
/// the set of ids read so far.
class TraceReader {
 public:
  explicit TraceReader(const std::string& path);

  bool ok() const noexcept { return error_.empty(); }
  const std::string& error() const noexcept { return error_; }
  std::uint64_t count() const noexcept { return count_; }
  /// The header's sink range (0 for a version-1 file).
  std::uint32_t sink_range() const noexcept { return sink_range_; }

  /// Reads the next record. Returns false at end of stream or on error
  /// (check ok() to tell them apart).
  bool next(TokenRecord& out);

 private:
  std::ifstream in_;
  std::string error_;
  std::uint64_t count_ = 0;
  std::uint32_t sink_range_ = 0;
  std::uint64_t read_ = 0;
  IdSlots tokens_;  ///< Token ids read so far.
};

/// Convenience wrappers over the streaming classes.
/// Returns an empty string on success, the error otherwise.
std::string write_trace_file(const std::string& path, const Trace& trace,
                             std::uint32_t sink_range = 0);

struct ReadTraceResult {
  Trace trace;
  std::uint32_t sink_range = 0;  ///< From the header; 0 for version 1.
  std::string error;
  bool ok() const noexcept { return error.empty(); }
};
ReadTraceResult read_trace_file(const std::string& path);

}  // namespace cn
