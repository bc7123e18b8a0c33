// util_test.cc — byte serialization and string helpers.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "util/bytes.h"
#include "util/strings.h"

namespace ppm::util {
namespace {

TEST(Bytes, U8RoundTrip) {
  ByteWriter w;
  w.U8(0);
  w.U8(255);
  w.U8(42);
  auto buf = w.Take();
  ByteReader r(buf);
  EXPECT_EQ(r.U8(), 0);
  EXPECT_EQ(r.U8(), 255);
  EXPECT_EQ(r.U8(), 42);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Bytes, U16LittleEndian) {
  ByteWriter w;
  w.U16(0x1234);
  EXPECT_EQ(w.bytes()[0], 0x34);
  EXPECT_EQ(w.bytes()[1], 0x12);
}

TEST(Bytes, U32RoundTrip) {
  ByteWriter w;
  w.U32(0);
  w.U32(std::numeric_limits<uint32_t>::max());
  w.U32(0xdeadbeef);
  auto buf = w.Take();
  ByteReader r(buf);
  EXPECT_EQ(r.U32(), 0u);
  EXPECT_EQ(r.U32(), std::numeric_limits<uint32_t>::max());
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
}

TEST(Bytes, U64RoundTrip) {
  ByteWriter w;
  w.U64(0x0123456789abcdefULL);
  auto buf = w.Take();
  EXPECT_EQ(buf.size(), 8u);
  ByteReader r(buf);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
}

TEST(Bytes, SignedRoundTrip) {
  ByteWriter w;
  w.I32(-1);
  w.I32(std::numeric_limits<int32_t>::min());
  w.I64(-123456789012345LL);
  auto buf = w.Take();
  ByteReader r(buf);
  EXPECT_EQ(r.I32(), -1);
  EXPECT_EQ(r.I32(), std::numeric_limits<int32_t>::min());
  EXPECT_EQ(r.I64(), -123456789012345LL);
}

TEST(Bytes, StringRoundTrip) {
  ByteWriter w;
  w.Str("");
  w.Str("hello");
  w.Str(std::string(1000, 'x'));
  auto buf = w.Take();
  ByteReader r(buf);
  EXPECT_EQ(r.Str(), "");
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Str(), std::string(1000, 'x'));
}

TEST(Bytes, BlobRoundTrip) {
  ByteWriter w;
  w.Blob({1, 2, 3});
  auto buf = w.Take();
  ByteReader r(buf);
  auto blob = r.Blob();
  ASSERT_TRUE(blob.has_value());
  EXPECT_EQ(*blob, (std::vector<uint8_t>{1, 2, 3}));
}

TEST(Bytes, UnderflowReturnsNullopt) {
  std::vector<uint8_t> buf{1, 2};
  ByteReader r(buf);
  EXPECT_FALSE(r.U32().has_value());
  // Failed reads must not consume anything usable.
  EXPECT_EQ(r.remaining(), 2u);
}

TEST(Bytes, StringLengthLieRejected) {
  ByteWriter w;
  w.U32(1000);  // claims 1000 bytes follow
  w.U8('x');
  auto buf = w.Take();
  ByteReader r(buf);
  EXPECT_FALSE(r.Str().has_value());
}

TEST(Bytes, PadAndSkip) {
  ByteWriter w;
  w.U8(7);
  w.Pad(10);
  EXPECT_EQ(w.size(), 11u);
  auto buf = w.Take();
  ByteReader r(buf);
  EXPECT_EQ(r.U8(), 7);
  EXPECT_TRUE(r.Skip(10));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_FALSE(r.Skip(1));
}

TEST(Bytes, BoolRoundTrip) {
  ByteWriter w;
  w.Bool(true);
  w.Bool(false);
  auto buf = w.Take();
  ByteReader r(buf);
  EXPECT_EQ(r.Bool(), true);
  EXPECT_EQ(r.Bool(), false);
}

// Property: every (value, offset) combination survives a round trip
// through a shared buffer.
class BytesPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BytesPropertyTest, MixedRoundTrip) {
  uint64_t v = GetParam();
  ByteWriter w;
  w.U64(v);
  w.U32(static_cast<uint32_t>(v));
  w.U16(static_cast<uint16_t>(v));
  w.U8(static_cast<uint8_t>(v));
  w.Str(std::to_string(v));
  auto buf = w.Take();
  ByteReader r(buf);
  EXPECT_EQ(r.U64(), v);
  EXPECT_EQ(r.U32(), static_cast<uint32_t>(v));
  EXPECT_EQ(r.U16(), static_cast<uint16_t>(v));
  EXPECT_EQ(r.U8(), static_cast<uint8_t>(v));
  EXPECT_EQ(r.Str(), std::to_string(v));
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Values, BytesPropertyTest,
                         ::testing::Values(0ULL, 1ULL, 0xffULL, 0x100ULL, 0xffffULL,
                                           0x10000ULL, 0xffffffffULL, 0x100000000ULL,
                                           0x7fffffffffffffffULL, 0xffffffffffffffffULL,
                                           0x123456789abcdef0ULL));

// The bytewise definition of Fletcher-16, reduced mod 255 after every
// byte.  Kept here as an independent oracle for the blocked form.
struct BytewiseFletcher16 {
  uint32_t lo = 0, hi = 0;
  void Add(uint8_t b) {
    lo = (lo + b) % 255;
    hi = (hi + lo) % 255;
  }
  uint16_t Sum() const { return static_cast<uint16_t>((hi << 8) | lo); }
};

uint16_t BytewiseFletcher16Of(const std::vector<uint8_t>& bytes) {
  BytewiseFletcher16 f;
  for (uint8_t b : bytes) f.Add(b);
  return f.Sum();
}

// Every length from 0 to 20000 (three block edges and more: 5801, 5802,
// 5803, 11604, 17406, ...), on an all-0xFF body — the accumulators'
// worst case — and on a seeded random one.
TEST(Fletcher16, MatchesBytewiseDefinitionAtEveryLength) {
  constexpr size_t kMaxLen = 20000;
  static_assert(kMaxLen > 3 * kFletcher16Block);
  std::mt19937_64 rng(0xf1e7c4e5);
  std::vector<uint8_t> all_ff(kMaxLen, 0xFF);
  std::vector<uint8_t> random(kMaxLen);
  for (auto& b : random) b = static_cast<uint8_t>(rng());
  for (const auto* body : {&all_ff, &random}) {
    BytewiseFletcher16 ref;
    for (size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(ref.Sum(), Fletcher16(body->data(), len))
          << "len " << len << (body == &all_ff ? " all-0xFF" : " random");
      if (len < kMaxLen) ref.Add((*body)[len]);
    }
  }
}

// The bound the block length rests on: a block that opens with both sums
// at 254 (the most a reduced state can carry in) and runs on all-0xFF
// drives `hi` to within 2^32 of overflow.  A first block of zeros ending
// in 0x00, 0xFE leaves lo = hi = 254 at the edge.
TEST(Fletcher16, WorstCaseCarryIntoAFullBlock) {
  std::vector<uint8_t> bytes(kFletcher16Block, 0);
  bytes[kFletcher16Block - 1] = 0xFE;
  BytewiseFletcher16 edge;
  for (uint8_t b : bytes) edge.Add(b);
  ASSERT_EQ(edge.lo, 254u);
  ASSERT_EQ(edge.hi, 254u);
  bytes.insert(bytes.end(), 2 * kFletcher16Block + 1, 0xFF);
  for (size_t len : {kFletcher16Block, kFletcher16Block + 1, 2 * kFletcher16Block - 1,
                     2 * kFletcher16Block, 2 * kFletcher16Block + 1, bytes.size()}) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    EXPECT_EQ(BytewiseFletcher16Of(prefix), Fletcher16(prefix.data(), prefix.size()))
        << "len " << len;
  }
}

// A single-byte change is caught unless its delta is a multiple of 255:
// every change but 0x00 <-> 0xFF.  That one blind spot is a property of
// the mod-255 sums, pinned here so it stays documented.
TEST(Fletcher16, DetectsEverySingleByteChangeButZeroForFF) {
  std::vector<uint8_t> bytes(64);
  for (size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<uint8_t>(i * 37);
  bytes[5] = 0xFF;
  const uint16_t clean = Fletcher16(bytes.data(), bytes.size());
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    const uint8_t was = bytes[pos];
    for (int x = 1; x < 256; ++x) {
      bytes[pos] = static_cast<uint8_t>(was ^ x);
      const bool blind = (was == 0x00 && bytes[pos] == 0xFF) || (was == 0xFF && bytes[pos] == 0x00);
      EXPECT_EQ(!blind, clean != Fletcher16(bytes.data(), bytes.size())) << pos << " ^ " << x;
    }
    bytes[pos] = was;
  }
}

TEST(Strings, SplitBasic) {
  auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitKeepsEmptyFields) {
  auto parts = Split(",a,,b,", ',');
  ASSERT_EQ(parts.size(), 5u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[4], "");
}

TEST(Strings, SplitEmptyString) {
  auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t\nx\r\n"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("no-trim"), "no-trim");
}

TEST(Strings, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(StartsWith("hello world", "hello"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_FALSE(StartsWith("", "x"));
  EXPECT_FALSE(StartsWith("abc", "abd"));
}

}  // namespace
}  // namespace ppm::util
