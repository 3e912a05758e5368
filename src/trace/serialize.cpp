#include "trace/serialize.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

namespace cn {

namespace {

void put_u32(unsigned char* dst, std::uint32_t v) {
  dst[0] = static_cast<unsigned char>(v);
  dst[1] = static_cast<unsigned char>(v >> 8);
  dst[2] = static_cast<unsigned char>(v >> 16);
  dst[3] = static_cast<unsigned char>(v >> 24);
}

void put_u64(unsigned char* dst, std::uint64_t v) {
  put_u32(dst, static_cast<std::uint32_t>(v));
  put_u32(dst + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const unsigned char* src) {
  return static_cast<std::uint32_t>(src[0]) |
         (static_cast<std::uint32_t>(src[1]) << 8) |
         (static_cast<std::uint32_t>(src[2]) << 16) |
         (static_cast<std::uint32_t>(src[3]) << 24);
}

std::uint64_t get_u64(const unsigned char* src) {
  return static_cast<std::uint64_t>(get_u32(src)) |
         (static_cast<std::uint64_t>(get_u32(src + 4)) << 32);
}

void encode_record(const TokenRecord& r,
                   unsigned char (&buf)[kTraceRecordBytes]) {
  put_u64(buf + 0, r.token);
  put_u64(buf + 8, r.process);
  put_u32(buf + 16, r.source);
  put_u32(buf + 20, r.sink);
  put_u64(buf + 24, r.value);
  put_u64(buf + 32, std::bit_cast<std::uint64_t>(r.t_in));
  put_u64(buf + 40, std::bit_cast<std::uint64_t>(r.t_out));
  put_u64(buf + 48, r.first_seq);
  put_u64(buf + 56, r.last_seq);
}

/// Decodes one record; returns what makes it unusable, or an empty string.
/// Token and process ids are 32-bit in memory, so wider values are
/// corrupt rather than truncated.
std::string decode_record(const unsigned char (&buf)[kTraceRecordBytes],
                          TokenRecord& r) {
  const std::uint64_t token = get_u64(buf + 0);
  const std::uint64_t process = get_u64(buf + 8);
  r.token = static_cast<TokenId>(token);
  r.process = static_cast<ProcessId>(process);
  r.source = get_u32(buf + 16);
  r.sink = get_u32(buf + 20);
  r.value = get_u64(buf + 24);
  r.t_in = std::bit_cast<double>(get_u64(buf + 32));
  r.t_out = std::bit_cast<double>(get_u64(buf + 40));
  r.first_seq = get_u64(buf + 48);
  r.last_seq = get_u64(buf + 56);
  if (token > std::numeric_limits<TokenId>::max() ||
      process > std::numeric_limits<ProcessId>::max()) {
    return "token or process id wider than 32 bits";
  }
  if (r.last_seq < r.first_seq) return "last_seq < first_seq";
  if (!std::isfinite(r.t_in) || !std::isfinite(r.t_out)) {
    return "t_in or t_out is not finite";
  }
  return {};
}

}  // namespace

TraceWriter::TraceWriter(const std::string& path, std::uint32_t sink_range)
    : out_(path, std::ios::binary | std::ios::trunc), path_(path) {
  if (!out_) {
    error_ = "cannot open trace file for writing: " + path;
    return;
  }
  unsigned char header[kTraceHeaderBytes];
  std::memcpy(header, kTraceMagic, sizeof(kTraceMagic));
  put_u64(header + 8, 0);  // Count patched in finish().
  put_u64(header + 16, sink_range);
  out_.write(reinterpret_cast<const char*>(header), sizeof(header));
  if (!out_) error_ = "failed writing trace header: " + path;
}

void TraceWriter::on_record(const TokenRecord& record) {
  if (!ok()) return;
  unsigned char buf[kTraceRecordBytes];
  encode_record(record, buf);
  out_.write(reinterpret_cast<const char*>(buf), sizeof(buf));
  if (!out_) {
    error_ = "failed writing trace record to " + path_;
    return;
  }
  ++written_;
}

void TraceWriter::finish() {
  if (finished_ || !ok()) return;
  finished_ = true;
  unsigned char count[8];
  put_u64(count, written_);
  out_.seekp(8);
  out_.write(reinterpret_cast<const char*>(count), sizeof(count));
  out_.flush();
  if (!out_) error_ = "failed finalizing trace file " + path_;
}

TraceReader::TraceReader(const std::string& path)
    : in_(path, std::ios::binary) {
  if (!in_) {
    error_ = "cannot open trace file: " + path;
    return;
  }
  in_.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in_.tellg());
  in_.seekg(0);
  // A version-1 header is the first 16 bytes of a version-2 one.
  unsigned char header[kTraceHeaderBytes] = {};
  const auto read_header = [&](std::size_t from, std::size_t to) {
    return file_size >= to &&
           in_.read(reinterpret_cast<char*>(header + from),
                    static_cast<std::streamsize>(to - from));
  };
  if (!read_header(0, kTraceHeaderBytesV1)) {
    error_ = "trace file too short for a header: " + path;
    return;
  }
  if (std::memcmp(header, kTraceMagic, sizeof(kTraceMagic) - 1) != 0) {
    error_ = "bad trace magic (not a CNTRACE file): " + path;
    return;
  }
  const bool v1 = header[7] == '1';
  if (!v1 && header[7] != kTraceMagic[7]) {
    error_ = "unsupported trace version: " + path;
    return;
  }
  const std::size_t header_bytes = v1 ? kTraceHeaderBytesV1
                                      : kTraceHeaderBytes;
  if (!read_header(kTraceHeaderBytesV1, header_bytes)) {
    error_ = "trace file too short for a header: " + path;
    return;
  }
  if (get_u64(header + 16) > std::numeric_limits<std::uint32_t>::max()) {
    error_ = "trace sink range wider than 32 bits: " + path;
    return;
  }
  sink_range_ = static_cast<std::uint32_t>(get_u64(header + 16));
  count_ = get_u64(header + 8);
  // Sized check via division (a forged count cannot overflow a multiply).
  const std::uint64_t payload = file_size - header_bytes;
  if (payload % kTraceRecordBytes != 0 ||
      payload / kTraceRecordBytes != count_) {
    error_ = "trace file " + path + " is truncated or has trailing bytes";
    return;
  }
}

bool TraceReader::next(TokenRecord& out) {
  if (!ok() || read_ >= count_) return false;
  unsigned char buf[kTraceRecordBytes];
  if (!in_.read(reinterpret_cast<char*>(buf), sizeof(buf))) {
    error_ = "unexpected end of trace file";
    return false;
  }
  std::string bad = decode_record(buf, out);
  if (bad.empty() && !tokens_.insert(out.token)) {
    bad = "duplicate token id " + std::to_string(out.token);
  }
  if (!bad.empty()) {
    error_ = "trace record " + std::to_string(read_) + ": " + bad;
    return false;
  }
  ++read_;
  return true;
}

std::string write_trace_file(const std::string& path, const Trace& trace,
                             std::uint32_t sink_range) {
  TraceWriter writer(path, sink_range);
  for (const TokenRecord& r : trace) writer.on_record(r);
  writer.finish();
  return writer.error();
}

ReadTraceResult read_trace_file(const std::string& path) {
  ReadTraceResult result;
  TraceReader reader(path);
  if (!reader.ok()) {
    result.error = reader.error();
    return result;
  }
  result.sink_range = reader.sink_range();
  result.trace.reserve(reader.count());
  TokenRecord rec;
  while (reader.next(rec)) result.trace.push_back(rec);
  if (!reader.ok()) result.error = reader.error();
  return result;
}

}  // namespace cn
