// recorder.h — the benchmark's own request bookkeeping and spans.
//
// Requests: every client request the benchmark issues gets a token at
// issue time, with the virtual time it was due.  Its reply callback
// completes the token with the virtual time the reply arrived, so a
// latency never depends on how the benchmark steps the simulator.  A
// token completed twice, or never, is a correctness violation.
//
// Spans: in a traced run, the benchmark records a span around each of
// its own calls into a layer (name, wall start/end, parent span,
// request id).  Spans live in memory and are written out at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace ppmbench {

namespace sim = ppm::sim;

enum class OpClass : uint8_t { kRead, kWrite };

// The client operations the workloads issue.  The class says whether
// the request changes process or replicated state.
enum class Op : uint8_t {
  kCreate,
  kSignal,
  kKill,
  kGenvSet,
  kBarrier,
  kConnect,
  kHistory,
  kRusage,
  kSnapshot,
  kStat,
};
constexpr int kOpCount = 10;
const char* OpName(Op op);
OpClass ClassOf(Op op);

struct Request {
  Op op;
  sim::SimTime due = 0;
  sim::SimTime done = 0;
  uint32_t replies = 0;
  bool ok = false;
  int64_t issue_ns = 0;  // wall clock at issue, traced runs only
};

class SpanLog;

class Recorder {
 public:
  // With an active `spans`, each request also becomes a flat
  // "tools.<op>" span from issue to reply.
  explicit Recorder(SpanLog* spans = nullptr) : spans_(spans) {}

  // Opens a request due at virtual time `due`; returns its token.
  uint64_t Begin(Op op, sim::SimTime due);
  // Records one reply.  Every call counts, so a second reply to one
  // token shows up in Violations().
  void Complete(uint64_t token, bool ok, sim::SimTime now);

  uint64_t attempted() const { return requests_.size(); }
  uint64_t failed() const;        // replied not-ok, or never replied
  uint64_t outstanding() const { return outstanding_; }
  const std::vector<Request>& requests() const { return requests_; }

  // Latencies in virtual ms.  A failed or unanswered request counts as
  // infinitely late.  Only requests due in [from, to) are included.
  std::vector<double> Latencies(OpClass cls, sim::SimTime from = 0,
                                sim::SimTime to = ~sim::SimTime{0}) const;
  std::vector<double> Latencies(Op op) const;

  // "every request gets exactly one reply".
  std::vector<std::string> Violations() const;

 private:
  SpanLog* spans_;
  std::vector<Request> requests_;
  uint64_t outstanding_ = 0;
};

// Nearest-rank percentile of `xs` (sorted in place); p in (0, 100].
// Returns 0 for an empty sample.
double Percentile(std::vector<double>& xs, double p);

using WallClock = std::chrono::steady_clock;
inline int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             WallClock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  struct Span {
    const char* name;  // a string literal
    uint32_t parent;   // index + 1 of the enclosing span, 0 for a root
    uint64_t request;  // Recorder token + 1, 0 when none
    int64_t start_ns;
    int64_t end_ns;
  };

  explicit SpanLog(size_t capacity) : capacity_(capacity) {}

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  // Opens a span under the innermost open one; returns a handle for
  // End().  Past the capacity the span is timed but not stored.
  uint32_t Begin(const char* name, uint64_t request = 0);
  void End(uint32_t handle);
  // Records a span that does not nest (a request from issue to reply).
  void Add(const char* name, uint64_t request, int64_t start_ns, int64_t end_ns);

  // Accumulated wall ns and count per span name, kept past the capacity.
  struct Total {
    const char* name;
    uint64_t count = 0;
    int64_t ns = 0;
  };
  const Total* FindTotal(const std::string& name) const;
  uint64_t dropped() const { return dropped_; }
  size_t size() const { return spans_.size(); }

  // One JSON object per line: {"name","parent","request","start_ns","end_ns"}.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Open {
    uint32_t stored;  // index + 1 in spans_, 0 when not stored
    size_t total;
    int64_t start_ns;
  };
  size_t TotalIndex(const char* name);

  bool on_ = false;
  size_t capacity_;
  std::vector<Span> spans_;
  std::vector<Open> open_;
  std::vector<Total> totals_;
  uint64_t dropped_ = 0;
};

// RAII span: a no-op when `log` is null or off.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request = 0)
      : log_(log != nullptr && log->on() ? log : nullptr),
        handle_(log_ != nullptr ? log_->Begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  uint32_t handle_;
};

}  // namespace ppmbench
