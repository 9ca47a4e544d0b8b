// Shared little-endian wire framing for PerDNN's binary on-disk formats
// (checkpoint snapshots, event journals). One Writer/Reader pair so every
// format gets the same fixed-width encoding, the same bounds checking, and
// the same magic | version | payload-size | payload | FNV-1a-checksum frame.
#pragma once

#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"

namespace perdnn::wire {

/// Decode-side failure: truncation, corruption, version or framing
/// mismatch. Format-specific decoders catch this and rethrow their own
/// error type so callers keep a single exception surface per format.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline std::uint64_t fnv1a(const char* data, std::size_t size) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Chained splitmix64 over 64-bit words from a per-engine start state: the
/// config fingerprint both engines write into their checkpoints.
class FingerprintHasher {
 public:
  explicit FingerprintHasher(std::uint64_t seed) : state_(seed) {}

  void mix(std::uint64_t v) {
    state_ ^= v;
    digest_ ^= splitmix64(state_);
  }
  void mix_double(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  /// The string's size, then its FNV-1a.
  void mix_string(const std::string& s) {
    mix(s.size());
    mix(fnv1a(s.data(), s.size()));
  }
  std::uint64_t digest() const { return digest_; }

 private:
  std::uint64_t state_;
  std::uint64_t digest_ = 0;
};

// -- little-endian fixed-width writer ---------------------------------------

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void count(std::size_t n) { u64(static_cast<std::uint64_t>(n)); }

  const std::string& bytes() const { return buf_; }

 private:
  std::string buf_;
};

// -- bounds-checked reader ---------------------------------------------------

class Reader {
 public:
  Reader(const char* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(
               data_[pos_ + static_cast<std::size_t>(i)]))
           << (8 * i);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(
               data_[pos_ + static_cast<std::size_t>(i)]))
           << (8 * i);
    pos_ += 8;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw WireError("wire: boolean field out of range");
    return v == 1;
  }
  /// Reads a vector length and sanity-checks it against the bytes left:
  /// each element needs at least `min_elem_bytes`, so a length the payload
  /// cannot possibly hold is rejected before any allocation.
  std::size_t count(std::size_t min_elem_bytes) {
    const std::uint64_t n = u64();
    const std::size_t remaining = size_ - pos_;
    if (min_elem_bytes > 0 && n > remaining / min_elem_bytes)
      throw WireError("wire: length field exceeds payload size");
    return static_cast<std::size_t>(n);
  }
  bool done() const { return pos_ == size_; }

 private:
  void need(std::size_t n) {
    if (size_ - pos_ < n) throw WireError("wire: truncated payload");
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// -- frame helpers -----------------------------------------------------------

/// Wraps a payload in the shared frame: 8-byte magic | u32 version |
/// u64 payload size | payload | u64 FNV-1a(payload).
inline std::string frame(const char (&magic)[8], std::uint32_t version,
                         const std::string& payload) {
  Writer out;
  for (char c : magic) out.u8(static_cast<std::uint8_t>(c));
  out.u32(version);
  out.u64(payload.size());
  std::string bytes = out.bytes();
  bytes += payload;
  Writer checksum;
  checksum.u64(fnv1a(payload.data(), payload.size()));
  bytes += checksum.bytes();
  return bytes;
}

/// Validates the frame around `bytes` (magic, version, size, checksum) and
/// returns a Reader positioned at the start of the payload. `format` names
/// the format in error messages ("snapshot", "journal", ...).
inline Reader unframe(const std::string& bytes, const char (&magic)[8],
                      std::uint32_t expected_version, const char* format) {
  constexpr std::size_t kHeaderSize = 8 + 4 + 8;  // magic + version + size
  const auto err = [&](const std::string& what) {
    return WireError(std::string(format) + ": " + what);
  };
  if (bytes.size() < kHeaderSize + 8)
    throw err("file too small to hold a header");
  for (std::size_t i = 0; i < 8; ++i)
    if (bytes[i] != magic[i]) throw err("bad magic (wrong file type)");
  Reader header(bytes.data() + 8, kHeaderSize - 8);
  const std::uint32_t version = header.u32();
  if (version != expected_version) {
    std::ostringstream msg;
    msg << "unsupported version " << version << " (expected "
        << expected_version << ")";
    throw err(msg.str());
  }
  const std::uint64_t payload_size = header.u64();
  if (payload_size != bytes.size() - kHeaderSize - 8)
    throw err("payload size mismatch (truncated file?)");
  const char* payload = bytes.data() + kHeaderSize;
  Reader trailer(bytes.data() + kHeaderSize + payload_size, 8);
  if (fnv1a(payload, payload_size) != trailer.u64())
    throw err("checksum mismatch (corrupted payload)");
  return Reader(payload, static_cast<std::size_t>(payload_size));
}

}  // namespace perdnn::wire
