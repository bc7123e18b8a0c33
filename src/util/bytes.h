// bytes.h — portable byte-oriented serialization.
//
// The PPM speaks a genuine wire protocol between local process managers
// (LPMs): every request and reply is flattened to bytes before it enters
// the simulated network and parsed on arrival.  Keeping real encode /
// decode in the loop (rather than passing C++ objects through the
// simulator) means message sizes are honest — Table 1 of the paper is
// specifically about 112-byte messages — and framing bugs are testable.
//
// Encoding rules:
//   * fixed-width integers are little-endian;
//   * strings and blobs are a u32 length followed by raw bytes;
//   * there is no type tagging: reader and writer must agree on layout,
//     exactly as in a hand-rolled 1986-era protocol.  Message-level
//     versioning lives in core/wire.h.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ppm::util {

// Append-only byte sink used to build wire messages.
class ByteWriter {
 public:
  ByteWriter() = default;

  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(std::string_view s);
  void Blob(const std::vector<uint8_t>& b);

  // Appends `n` zero bytes; used to pad probe messages to an exact wire
  // size (e.g. the 112-byte kernel messages of Table 1).
  void Pad(size_t n) { buf_.insert(buf_.end(), n, 0); }

  size_t size() const { return buf_.size(); }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  const std::vector<uint8_t>& bytes() const { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

// Sequential reader over a received message.  All accessors return
// std::nullopt on underflow instead of trusting the peer; a malformed
// message must never crash an LPM (the paper's managers survive sibling
// failures, so they must also survive sibling garbage).
//
// The reader does not own the bytes: it walks a borrowed (pointer,
// length) window, so it decodes owning vectors and zero-copy views
// (core::WireView) alike.  The window must outlive the reader.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : data_(buf.data()), len_(buf.size()) {}
  ByteReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  std::optional<uint8_t> U8() {
    if (remaining() < 1) return std::nullopt;
    return data_[pos_++];
  }
  std::optional<uint16_t> U16() {
    if (remaining() < 2) return std::nullopt;
    uint16_t v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return v;
  }
  std::optional<uint32_t> U32() {
    if (remaining() < 4) return std::nullopt;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }
  std::optional<uint64_t> U64() {
    if (remaining() < 8) return std::nullopt;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }
  std::optional<int32_t> I32() {
    auto v = U32();
    if (!v) return std::nullopt;
    return static_cast<int32_t>(*v);
  }
  std::optional<int64_t> I64() {
    auto v = U64();
    if (!v) return std::nullopt;
    return static_cast<int64_t>(*v);
  }
  std::optional<bool> Bool() {
    auto v = U8();
    if (!v) return std::nullopt;
    return *v != 0;
  }
  std::optional<std::string> Str();
  std::optional<std::vector<uint8_t>> Blob();

  // Skips `n` bytes of padding; false on underflow.
  bool Skip(size_t n) {
    if (remaining() < n) return false;
    pos_ += n;
    return true;
  }

  size_t remaining() const { return len_ - pos_; }
  bool AtEnd() const { return pos_ == len_; }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected), the framing
// checksum of the durable-store journal (src/store/).  Stronger than the
// Fletcher-16 used on wire frames because journal frames must survive a
// different adversary: a crash can cut a frame at any byte, and a torn
// tail must never be mistaken for a record.
uint32_t Crc32(const uint8_t* data, size_t len);
uint32_t Crc32(const std::vector<uint8_t>& data);

// Fletcher-16 (both sums mod 255), the integrity checksum of wire frames
// (core/wire.h, escape 0xF4).  Returns (hi << 8) | lo.  Detects every
// single-bit flip and every single-byte change except 0x00 <-> 0xFF, the
// one byte delta that is a multiple of 255.
//
// Computed in blocks: `lo` and `hi` run unreduced in 32-bit accumulators
// and are reduced mod 255 once per kFletcher16Block bytes instead of once
// per byte.  The result is bit-identical to the bytewise definition
// (lo = (lo + b) % 255; hi = (hi + lo) % 255) because reduction mod 255
// commutes with the additions; the block length is the largest for which
// `hi` cannot pass 2^32 - 1 on all-0xFF input with both sums < 255 on
// entry: 254 + 254n + 255n(n+1)/2 < 2^32 holds for n = 5802, not 5803.
constexpr size_t kFletcher16Block = 5802;
uint16_t Fletcher16(const uint8_t* data, size_t len);

}  // namespace ppm::util
