// The framed-record log shared by every append-only XLDS file (the DSE
// journal, the persistent result cache).  Each format keeps its own magic,
// header and body codec; this header owns only what they have in common:
//
//   record:  body length u32 | body | FNV-1a-64 checksum of the body
//
// plus the raw little-endian field helpers the body codecs are written in,
// and the torn-tail prefix scan that recovery rests on: records are replayed
// until the first one that is truncated, over-long or fails its checksum (or
// that the caller's decoder rejects), and everything from there on is
// distrusted.  A crash mid-append can only ever tear the last record.
#pragma once

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <type_traits>

#include "util/hash.hpp"

namespace xlds::util {

/// Sanity bound on one record body: a longer length field is corruption,
/// not a real record.
constexpr std::uint32_t kMaxRecordBodyLen = 1u << 20;

/// Append the raw bytes of a trivially copyable value.
template <class T>
void append_raw(std::string& buf, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  buf.append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// Read a trivially copyable value at `pos` and advance past it; false (with
/// `pos` unchanged) when fewer than sizeof(T) bytes remain.
template <class T>
bool read_raw(const std::string& buf, std::size_t& pos, T& out) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (pos + sizeof out > buf.size()) return false;
  std::memcpy(&out, buf.data() + pos, sizeof out);
  pos += sizeof out;
  return true;
}

/// Append one framed record (length, body, checksum) to `buf`.
inline void append_record(std::string& buf, const std::string& body) {
  append_raw(buf, static_cast<std::uint32_t>(body.size()));
  buf.append(body);
  append_raw(buf, fnv1a64(body.data(), body.size()));
}

/// Replay the intact record prefix of `bytes` starting at `pos`, calling
/// `on_body(body)` for each checksum-valid record; `on_body` returns false to
/// reject a body it cannot decode, which ends the scan like a torn record.
/// Returns the byte offset just past the last accepted record.
template <class OnBody>
std::size_t scan_records(const std::string& bytes, std::size_t pos, OnBody&& on_body) {
  while (pos < bytes.size()) {
    std::uint32_t body_len = 0;
    std::size_t scan = pos;
    if (!read_raw(bytes, scan, body_len) || body_len > kMaxRecordBodyLen ||
        scan + body_len + sizeof(std::uint64_t) > bytes.size())
      break;  // torn tail
    const std::string body = bytes.substr(scan, body_len);
    scan += body_len;
    std::uint64_t checksum = 0;
    read_raw(bytes, scan, checksum);
    if (checksum != fnv1a64(body.data(), body.size()) || !on_body(body))
      break;  // corrupt record: distrust everything after it
    pos = scan;
  }
  return pos;
}

/// Whole-file read; false when the file cannot be opened.
inline bool read_file_bytes(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return true;
}

}  // namespace xlds::util
