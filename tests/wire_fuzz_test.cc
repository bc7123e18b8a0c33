// wire_fuzz_test.cc — adversarial input for the zero-copy parsers.
// Seeded mutation of real frames (truncation at every prefix, single
// bit flips, corrupted length prefixes with *fixed-up* checksums so the
// reader's bounds checks — not the checksum — are what is exercised)
// plus pure random garbage.  The parser contract under attack: Parse
// returns nullopt instead of crashing or reading out of bounds (the
// sanitizer job turns any overread into a failure), and the
// net.corrupt_frames counter advances exactly when a frame fails to open
// with a complete, matching checksum header — mutation-by-mutation, not
// approximately.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppm::core {
namespace {

uint64_t CorruptFrames() {
  return obs::Registry::Instance().GetCounter("net.corrupt_frames")->value();
}

uint16_t Fletcher16(const uint8_t* p, size_t n) {
  uint32_t lo = 0, hi = 0;
  for (size_t i = 0; i < n; ++i) {
    lo = (lo + p[i]) % 255;
    hi = (hi + lo) % 255;
  }
  return static_cast<uint16_t>((hi << 8) | lo);
}

// Mirror of Parse's corruption bookkeeping: the header is mandatory, so
// the counter ticks exactly when a frame does not open with the 0xF4
// escape, is too short to carry its checksum, or fails verification.
bool ExpectCorruptTick(const uint8_t* p, size_t len) {
  if (len < kChecksumHeaderBytes || p[0] != kChecksumHeaderTag) return true;
  const uint16_t stored = static_cast<uint16_t>(p[1] | (static_cast<uint16_t>(p[2]) << 8));
  return stored != Fletcher16(p + kChecksumHeaderBytes, len - kChecksumHeaderBytes);
}

// Re-stamp the stored checksum so a mutated body verifies again.
void FixupChecksum(std::vector<uint8_t>& frame) {
  const uint16_t ck =
      Fletcher16(frame.data() + kChecksumHeaderBytes, frame.size() - kChecksumHeaderBytes);
  frame[1] = static_cast<uint8_t>(ck & 0xff);
  frame[2] = static_cast<uint8_t>(ck >> 8);
}

// A frame pool with some structural variety: flat messages, nested
// vectors, the STAT escape, trace and deadline headers, the BUSY escape.
std::vector<std::vector<uint8_t>> FramePool() {
  std::vector<std::vector<uint8_t>> pool;
  pool.push_back(Serialize(Msg{HelloReject{"gone fishing"}}));
  // A SignalReq with an empty target host (see the escape-byte test).
  SignalReq sig;
  sig.req_id = 41;
  sig.target = {"", 1234};
  sig.sig = host::Signal::kSigStop;
  pool.push_back(Serialize(Msg{sig}));
  HelloSibling hs;
  hs.user = "ana";
  hs.origin_host = "vaxA";
  hs.origin_lpm_pid = 77;
  hs.token = 0xdeadbeefcafef00dull;
  hs.ccs_host = "vaxB";
  pool.push_back(Serialize(Msg{hs}));
  SnapshotResp sr;
  sr.req_id = 9;
  sr.origin_host = "vaxA";
  sr.replier_host = "sun1";
  sr.route = {"vaxA", "sun1", "sun2"};
  sr.records.resize(2);
  sr.records[0].gpid = {"vaxA", 12};
  sr.records[0].command = "cruncher";
  sr.records[1].gpid = {"sun1", 44};
  pool.push_back(Serialize(Msg{sr}));
  StatReq stq;
  stq.req_id = 5;
  stq.origin_host = "vaxB";
  stq.route = {"vaxB"};
  pool.push_back(Serialize(Msg{stq}));
  StatDelta sd;
  sd.origin_host = "vaxC";
  sd.watch_id = 3;
  sd.records.resize(2);
  sd.records[0].host = "vaxC";
  sd.records[0].user = "ana";
  sd.records[0].seq = 2;
  sd.records[0].d_kernel_events = 17;
  sd.records[1].host = "sun1";
  sd.records[1].seq = 2;
  pool.push_back(Serialize(Msg{sd}));
  obs::TraceContext trace;
  trace.trace_id = 0x1234;
  trace.span_id = 0x5678;
  trace.parent_span = 0x9abc;
  pool.push_back(Serialize(Msg{Probe{31337}}, trace));
  DeadlineStamp stamp;
  stamp.deadline_us = 0x44556677;
  stamp.idem_token = 0x8899aabbccddeeffull;
  pool.push_back(Serialize(Msg{Probe{31338}}, trace, stamp));
  BusyResp busy;
  busy.req_id = 7;
  busy.error = "handler queue full";
  busy.retry_after_us = 200000;
  pool.push_back(Serialize(Msg{busy}, obs::TraceContext{}, stamp));
  return pool;
}

// Every proper prefix of every pool frame.  A truncated frame almost
// always fails its checksum (and a prefix shorter than the header always
// does); when a 16-bit Fletcher collision lets one through, the parser
// may still reject it structurally — the exactness claim is about the
// counter, which must follow the checksum verdict.
TEST(WireFuzz, TruncatedFramesNeverCrashAndCountExactly) {
  for (const auto& frame : FramePool()) {
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      const bool expect_tick = ExpectCorruptTick(frame.data(), cut);
      const uint64_t before = CorruptFrames();
      auto msg = Parse(WireView(frame.data(), cut));
      EXPECT_EQ(before + (expect_tick ? 1 : 0), CorruptFrames())
          << "cut " << cut << " of " << frame.size();
      if (expect_tick) {
        EXPECT_FALSE(msg.has_value()) << "cut " << cut;
      }
    }
  }
}

// Single-bit flips anywhere, the escape tag included.  Fletcher-16
// detects every single-bit change (the delta is a power of two, never
// ≡ 0 mod 255), so a body flip is always a counter tick; a flip inside
// the stored checksum bytes mismatches the recomputed sum just the same,
// and a flip of byte 0 leaves a frame without the mandatory header.
TEST(WireFuzz, SingleBitFlipsAreAlwaysDetected) {
  std::mt19937_64 rng(0x5eed);
  for (const auto& frame : FramePool()) {
    for (int iter = 0; iter < 400; ++iter) {
      std::vector<uint8_t> mutated = frame;
      // The first eight iterations flip each bit of byte 0 in turn.
      const size_t pos = iter < 8 ? 0 : rng() % mutated.size();
      const unsigned bit = iter < 8 ? static_cast<unsigned>(iter) : rng() % 8;
      mutated[pos] ^= static_cast<uint8_t>(1u << bit);
      const uint64_t before = CorruptFrames();
      auto msg = Parse(mutated);
      EXPECT_FALSE(msg.has_value()) << "pos " << pos;
      EXPECT_EQ(before + 1, CorruptFrames()) << "pos " << pos;
    }
  }
}

// Any corruption of the escape byte, not only single-bit flips: each of
// the 255 nonzero XORs of byte 0 must be rejected and counted.  Were
// header-less frames accepted, the rest of the frame would be decoded
// unverified: when they were, 4 of these XORs of the pool's SignalReq
// decoded as a BusyResp, HistoryReq, AdoptReq or TraceReq.
TEST(WireFuzz, EscapeByteCorruptionIsAlwaysDetected) {
  for (const auto& frame : FramePool()) {
    for (int x = 1; x < 256; ++x) {
      std::vector<uint8_t> mutated = frame;
      mutated[0] ^= static_cast<uint8_t>(x);
      const uint64_t before = CorruptFrames();
      EXPECT_FALSE(Parse(mutated).has_value()) << "xor " << x;
      EXPECT_EQ(before + 1, CorruptFrames()) << "xor " << x;
    }
  }
}

// Oversized length prefixes with a VALID checksum: the reader's bounds
// checks alone must reject the frame, without the checksum as a safety
// net and without reading past the view.
TEST(WireFuzz, OversizedLengthPrefixesAreBoundsChecked) {
  // HelloReject body: [tag][u32 reason length][bytes] — the length
  // prefix sits right after the 3-byte checksum header and the tag.
  std::vector<uint8_t> frame = Serialize(Msg{HelloReject{"abc"}});
  const size_t len_off = kChecksumHeaderBytes + 1;
  for (uint32_t huge : {0x10u, 0xffffu, 0x7fffffffu, 0xffffffffu}) {
    std::vector<uint8_t> mutated = frame;
    for (int i = 0; i < 4; ++i) {
      mutated[len_off + i] = static_cast<uint8_t>(huge >> (8 * i));
    }
    FixupChecksum(mutated);
    const uint64_t before = CorruptFrames();
    auto msg = Parse(mutated);
    EXPECT_FALSE(msg.has_value()) << "len " << huge;
    EXPECT_EQ(before, CorruptFrames()) << "len " << huge;  // checksum was valid
  }

  // SnapshotReq carries a string-vector count; an inflated count must
  // be rejected before it becomes a giant reserve() or an overread.
  SnapshotReq req;
  req.req_id = 1;
  req.origin_host = "h";
  req.route = {"a", "b"};
  std::vector<uint8_t> snap = Serialize(Msg{req});
  const size_t count_off = kChecksumHeaderBytes + 1 + 8 + (4 + 1) + 8 + 8;
  for (uint32_t huge : {0x40u, 0xffffffu, 0xffffffffu}) {
    std::vector<uint8_t> mutated = snap;
    for (int i = 0; i < 4; ++i) {
      mutated[count_off + i] = static_cast<uint8_t>(huge >> (8 * i));
    }
    FixupChecksum(mutated);
    auto msg = Parse(mutated);
    EXPECT_FALSE(msg.has_value()) << "count " << huge;
  }
}

// Pure random garbage, with the escape tag forced some of the time so
// the checksum path sees traffic too.  The counter model must hold
// byte-for-byte even here.
TEST(WireFuzz, RandomGarbageNeverCrashes) {
  std::mt19937_64 rng(0xba5eba11);
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<uint8_t> junk(rng() % 64);
    for (auto& b : junk) b = static_cast<uint8_t>(rng());
    if (!junk.empty() && iter % 3 == 0) junk[0] = kChecksumHeaderTag;
    const bool expect_tick = ExpectCorruptTick(junk.data(), junk.size());
    const uint64_t before = CorruptFrames();
    (void)Parse(junk);
    EXPECT_EQ(before + (expect_tick ? 1 : 0), CorruptFrames()) << "iter " << iter;
  }
}

// The kernel-event parser: wrong sizes, bad kinds, inflated detail
// lengths, random 112-byte payloads.  Always nullopt or a value — never
// a read past the 112-byte view.
TEST(WireFuzz, KernelEventParserIsBoundsChecked) {
  std::mt19937_64 rng(0x4e7e57);
  // Wrong sizes: only exactly 112 bytes is a kernel event.
  std::vector<uint8_t> big(256, 0);
  for (size_t len = 0; len < big.size(); ++len) {
    if (len == kKernelEventWireBytes) continue;
    EXPECT_FALSE(ParseKernelEvent(WireView(big.data(), len)).has_value()) << len;
  }
  // Random payloads: kind and detail-length validation gate acceptance.
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<uint8_t> bytes(kKernelEventWireBytes);
    for (auto& b : bytes) b = static_cast<uint8_t>(rng());
    auto ev = ParseKernelEvent(bytes);
    if (ev.has_value()) {
      // Acceptance implies the gates held.
      EXPECT_LE(static_cast<uint8_t>(ev->kind), 9);
      EXPECT_LE(ev->detail.size(), kKernelEventWireBytes - 26);
    }
  }
  // An inflated detail length in an otherwise valid event.
  host::KernelEvent ev;
  ev.kind = host::KEvent::kExec;
  ev.pid = 4;
  ev.detail = "sh";
  std::vector<uint8_t> bytes = SerializeKernelEvent(ev);
  bytes[22] = 0xff;  // detail length prefix (offset 22, little-endian)
  bytes[23] = 0xff;
  EXPECT_FALSE(ParseKernelEvent(bytes).has_value());
}

// The payload classifier runs on every data frame the network delivers;
// it must tolerate any prefix of any frame and arbitrary junk.
TEST(WireFuzz, ClassifierIsMemorySafe) {
  std::mt19937_64 rng(0xc1a55);
  for (const auto& frame : FramePool()) {
    for (size_t cut = 0; cut <= frame.size(); ++cut) {
      const char* label = ClassifyWireFrame(frame.data(), cut);
      EXPECT_NE(nullptr, label);
    }
  }
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> junk(rng() % 40);
    for (auto& b : junk) b = static_cast<uint8_t>(rng());
    EXPECT_NE(nullptr, ClassifyWireFrame(junk.data(), junk.size()));
  }
}

}  // namespace
}  // namespace ppm::core
