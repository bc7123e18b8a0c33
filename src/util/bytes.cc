#include "util/bytes.h"

#include <algorithm>
#include <cstring>

namespace ppm::util {

void ByteWriter::U16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void ByteWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::Blob(const std::vector<uint8_t>& b) {
  U32(static_cast<uint32_t>(b.size()));
  buf_.insert(buf_.end(), b.begin(), b.end());
}

std::optional<std::string> ByteReader::Str() {
  auto n = U32();
  if (!n || remaining() < *n) return std::nullopt;
  std::string s(reinterpret_cast<const char*>(data_ + pos_), *n);
  pos_ += *n;
  return s;
}

std::optional<std::vector<uint8_t>> ByteReader::Blob() {
  auto n = U32();
  if (!n || remaining() < *n) return std::nullopt;
  std::vector<uint8_t> b(data_ + pos_, data_ + pos_ + *n);
  pos_ += *n;
  return b;
}

namespace {

struct Crc32Table {
  uint32_t entries[256];
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      entries[i] = c;
    }
  }
};

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t len) {
  static const Crc32Table table;
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) c = table.entries[(c ^ data[i]) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const std::vector<uint8_t>& data) { return Crc32(data.data(), data.size()); }

uint16_t Fletcher16(const uint8_t* data, size_t len) {
  uint32_t lo = 0, hi = 0;
  while (len > 0) {
    const size_t n = std::min(len, kFletcher16Block);
    for (size_t i = 0; i < n; ++i) {
      lo += data[i];
      hi += lo;
    }
    lo %= 255;
    hi %= 255;
    data += n;
    len -= n;
  }
  return static_cast<uint16_t>((hi << 8) | lo);
}

}  // namespace ppm::util
