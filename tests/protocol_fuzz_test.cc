// protocol_fuzz_test.cc — adversarial input for the inetd/pmd service
// protocol parsers (daemon/protocol.h), which take bytes straight off a
// stream connection from any requester.  Truncation at every prefix,
// single bit flips and random garbage, seeded.  The frames carry no
// checksum, so a mutation may still parse; the contract is that Parse
// never crashes or reads past the buffer (the sanitizer job turns an
// overread into a failure), and that whatever it accepts is a well-formed
// value: the same length on the wire, and a fixed point of
// Serialize -> Parse.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "daemon/protocol.h"

namespace ppm::daemon {
namespace {

LpmRequest SampleRequest() {
  LpmRequest req;
  req.user = "ana";
  req.origin_host = "vaxA";
  req.origin_user = "root";
  return req;
}

LpmResponse SampleResponse() {
  LpmResponse resp;
  resp.ok = true;
  resp.accept_addr = net::SocketAddr{7, 4321};
  resp.token = 0xdeadbeefcafef00dull;
  resp.lpm_pid = 88;
  resp.created = true;
  resp.busy = true;
  resp.retry_after_us = 250000;
  return resp;
}

// Bytes of LpmResponse's optional overload trailer (busy, retry_after_us).
constexpr size_t kTrailerBytes = 1 + 8;

// An accepted frame must describe a value that re-encodes to a frame of
// the same length and parses back to itself.  (Bytes need not match: any
// nonzero bool byte reads as true and re-encodes as 1.  A response in the
// trailerless format re-encodes with the trailer, kTrailerBytes longer.)
template <typename T>
void ExpectWellFormed(const T& value, size_t wire_len, const char* what) {
  const std::vector<uint8_t> again = value.Serialize();
  if constexpr (std::is_same_v<T, LpmResponse>) {
    if (again.size() == wire_len + kTrailerBytes) wire_len = again.size();
  }
  EXPECT_EQ(wire_len, again.size()) << what;
  auto reparsed = T::Parse(again);
  ASSERT_TRUE(reparsed.has_value()) << what;
  EXPECT_EQ(again, reparsed->Serialize()) << what;
}

TEST(ProtocolFuzz, RoundTrip) {
  const auto req_bytes = SampleRequest().Serialize();
  auto req = LpmRequest::Parse(req_bytes);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req_bytes, req->Serialize());
  const auto resp_bytes = SampleResponse().Serialize();
  auto resp = LpmResponse::Parse(resp_bytes);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp_bytes, resp->Serialize());
}

// Every proper prefix of a request is rejected: each field is
// length-prefixed and Parse insists on consuming the frame exactly.
TEST(ProtocolFuzz, TruncatedRequestsAreRejected) {
  const auto bytes = SampleRequest().Serialize();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(LpmRequest::Parse(prefix).has_value()) << "cut " << cut;
  }
}

// Every proper prefix of a response is rejected but one: the response
// ending at `created`, before the overload trailer (busy, retry_after),
// is the original format and parses with the trailer defaulted.
TEST(ProtocolFuzz, TruncatedResponsesAreRejectedButForTheTrailerlessFormat) {
  const LpmResponse sample = SampleResponse();
  const auto bytes = sample.Serialize();
  const size_t legacy_len = bytes.size() - kTrailerBytes;
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    auto resp = LpmResponse::Parse(prefix);
    if (cut != legacy_len) {
      EXPECT_FALSE(resp.has_value()) << "cut " << cut;
      continue;
    }
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->ok, sample.ok);
    EXPECT_EQ(resp->accept_addr.host, sample.accept_addr.host);
    EXPECT_EQ(resp->accept_addr.port, sample.accept_addr.port);
    EXPECT_EQ(resp->token, sample.token);
    EXPECT_EQ(resp->lpm_pid, sample.lpm_pid);
    EXPECT_EQ(resp->created, sample.created);
    EXPECT_FALSE(resp->busy);
    EXPECT_EQ(resp->retry_after_us, 0u);
  }
}

// Single bit flips anywhere.  A flip of the magic byte is always
// rejected; elsewhere the value may change, but only into a well-formed
// one.
TEST(ProtocolFuzz, SingleBitFlipsAreMemorySafe) {
  const auto req_bytes = SampleRequest().Serialize();
  const auto resp_bytes = SampleResponse().Serialize();
  for (size_t pos = 0; pos < req_bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mutated = req_bytes;
      mutated[pos] ^= static_cast<uint8_t>(1u << bit);
      auto req = LpmRequest::Parse(mutated);
      if (pos == 0) {
        EXPECT_FALSE(req.has_value()) << "bit " << bit;
      }
      if (req) ExpectWellFormed(*req, mutated.size(), "request");
    }
  }
  for (size_t pos = 0; pos < resp_bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mutated = resp_bytes;
      mutated[pos] ^= static_cast<uint8_t>(1u << bit);
      auto resp = LpmResponse::Parse(mutated);
      if (pos == 0) {
        EXPECT_FALSE(resp.has_value()) << "bit " << bit;
      }
      if (resp) ExpectWellFormed(*resp, mutated.size(), "response");
    }
  }
}

// Length prefixes that overstate the rest of the frame are refused before
// any allocation of that size.
TEST(ProtocolFuzz, OversizedLengthPrefixesAreBoundsChecked) {
  const auto req_bytes = SampleRequest().Serialize();
  const auto resp_bytes = SampleResponse().Serialize();
  for (uint32_t huge : {0x10u, 0xffffu, 0x7fffffffu, 0xffffffffu}) {
    std::vector<uint8_t> req = req_bytes;
    std::vector<uint8_t> resp = resp_bytes;
    for (int i = 0; i < 4; ++i) {
      req[1 + i] = static_cast<uint8_t>(huge >> (8 * i));   // user length
      resp[2 + i] = static_cast<uint8_t>(huge >> (8 * i));  // error length
    }
    EXPECT_FALSE(LpmRequest::Parse(req).has_value()) << "len " << huge;
    EXPECT_FALSE(LpmResponse::Parse(resp).has_value()) << "len " << huge;
  }
}

// Random garbage, with the right magic byte forced a third of the time,
// and random rewrites of a few bytes of valid frames with random field
// values: pure junk almost never gets past the length prefixes, the
// rewrites do, so the accept path is exercised too.
TEST(ProtocolFuzz, RandomGarbageNeverCrashes) {
  std::mt19937_64 rng(0x9d1e55);
  auto str = [&rng] { return std::string(rng() % 12, static_cast<char>(rng())); };
  const uint8_t req_magic = SampleRequest().Serialize()[0];
  const uint8_t resp_magic = SampleResponse().Serialize()[0];
  size_t accepted = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::vector<uint8_t> junk;
    if (iter % 2 == 0) {
      junk.resize(rng() % 64);
      for (auto& b : junk) b = static_cast<uint8_t>(rng());
      if (!junk.empty() && iter % 3 == 0) junk[0] = iter % 4 ? req_magic : resp_magic;
    } else if (iter % 4 == 1) {
      LpmRequest req;
      req.user = str();
      req.origin_host = str();
      req.origin_user = str();
      junk = req.Serialize();
    } else {
      LpmResponse resp;
      resp.ok = rng() & 1;
      resp.error = str();
      resp.accept_addr = net::SocketAddr{static_cast<uint32_t>(rng()),
                                         static_cast<uint16_t>(rng())};
      resp.token = rng();
      resp.lpm_pid = static_cast<int32_t>(rng());
      resp.created = rng() & 1;
      resp.busy = rng() & 1;
      resp.retry_after_us = rng();
      junk = resp.Serialize();
    }
    if (iter % 2 == 1) {
      for (uint64_t n = 1 + rng() % 3; n > 0; --n) {
        junk[rng() % junk.size()] = static_cast<uint8_t>(rng());
      }
    }
    if (auto req = LpmRequest::Parse(junk)) {
      ++accepted;
      ExpectWellFormed(*req, junk.size(), "request");
    }
    if (auto resp = LpmResponse::Parse(junk)) {
      ++accepted;
      ExpectWellFormed(*resp, junk.size(), "response");
    }
  }
  // Not a contract: a check that the generator reaches the accept path,
  // so the well-formedness assertions above are exercised.
  EXPECT_GT(accepted, 1000u);
}

}  // namespace
}  // namespace ppm::daemon
