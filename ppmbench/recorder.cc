#include "recorder.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace ppmbench {

const char* OpName(Op op) {
  switch (op) {
    case Op::kCreate: return "create";
    case Op::kSignal: return "signal";
    case Op::kKill: return "kill";
    case Op::kGenvSet: return "genv_set";
    case Op::kBarrier: return "barrier";
    case Op::kConnect: return "connect";
    case Op::kHistory: return "history";
    case Op::kRusage: return "rusage";
    case Op::kSnapshot: return "snapshot";
    case Op::kStat: return "stat";
  }
  return "?";
}

OpClass ClassOf(Op op) {
  switch (op) {
    case Op::kHistory:
    case Op::kRusage:
    case Op::kSnapshot:
    case Op::kStat:
      return OpClass::kRead;
    default:
      return OpClass::kWrite;
  }
}

namespace {

const char* SpanNameOf(Op op) {
  switch (op) {
    case Op::kCreate: return "tools.create";
    case Op::kSignal: return "tools.signal";
    case Op::kKill: return "tools.kill";
    case Op::kGenvSet: return "tools.genv_set";
    case Op::kBarrier: return "tools.barrier";
    case Op::kConnect: return "tools.connect";
    case Op::kHistory: return "tools.history";
    case Op::kRusage: return "tools.rusage";
    case Op::kSnapshot: return "tools.snapshot";
    case Op::kStat: return "tools.stat";
  }
  return "tools.?";
}

double LatencyMs(const Request& r) {
  if (r.replies == 0 || !r.ok) return std::numeric_limits<double>::infinity();
  return sim::ToMillis(static_cast<sim::SimDuration>(r.done - r.due));
}

}  // namespace

uint64_t Recorder::Begin(Op op, sim::SimTime due) {
  Request r;
  r.op = op;
  r.due = due;
  if (spans_ != nullptr && spans_->on()) r.issue_ns = WallNs();
  requests_.push_back(r);
  ++outstanding_;
  return requests_.size() - 1;
}

void Recorder::Complete(uint64_t token, bool ok, sim::SimTime now) {
  Request& r = requests_.at(token);
  if (++r.replies == 1) {
    r.done = now;
    r.ok = ok;
    --outstanding_;
    if (r.issue_ns != 0) spans_->Add(SpanNameOf(r.op), token + 1, r.issue_ns, WallNs());
  }
}

uint64_t Recorder::failed() const {
  uint64_t n = 0;
  for (const Request& r : requests_) {
    if (r.replies == 0 || !r.ok) ++n;
  }
  return n;
}

std::vector<double> Recorder::Latencies(OpClass cls, sim::SimTime from,
                                        sim::SimTime to) const {
  std::vector<double> out;
  for (const Request& r : requests_) {
    if (ClassOf(r.op) == cls && r.due >= from && r.due < to) out.push_back(LatencyMs(r));
  }
  return out;
}

std::vector<double> Recorder::Latencies(Op op) const {
  std::vector<double> out;
  for (const Request& r : requests_) {
    if (r.op == op) out.push_back(LatencyMs(r));
  }
  return out;
}

std::vector<std::string> Recorder::Violations() const {
  uint64_t missing = 0, extra = 0;
  for (const Request& r : requests_) {
    if (r.replies == 0) ++missing;
    if (r.replies > 1) extra += r.replies - 1;
  }
  std::vector<std::string> out;
  if (missing > 0) {
    out.push_back("one-reply: " + std::to_string(missing) + " requests got no reply");
  }
  if (extra > 0) {
    out.push_back("one-reply: " + std::to_string(extra) + " duplicate replies");
  }
  return out;
}

double Percentile(std::vector<double>& xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  if (idx >= xs.size()) idx = xs.size() - 1;
  return xs[idx];
}

// --- spans -----------------------------------------------------------------

size_t SpanLog::TotalIndex(const char* name) {
  // Names are literals: a handful of distinct pointers, so a linear
  // scan by pointer (then by text, for literals the linker did not
  // merge) beats hashing.
  for (size_t i = 0; i < totals_.size(); ++i) {
    if (totals_[i].name == name) return i;
  }
  for (size_t i = 0; i < totals_.size(); ++i) {
    if (std::strcmp(totals_[i].name, name) == 0) return i;
  }
  totals_.push_back(Total{name});
  return totals_.size() - 1;
}

uint32_t SpanLog::Begin(const char* name, uint64_t request) {
  Open o;
  o.total = TotalIndex(name);
  o.stored = 0;
  if (spans_.size() < capacity_) {
    const uint32_t parent = open_.empty() ? 0 : open_.back().stored;
    spans_.push_back(Span{name, parent, request, 0, 0});
    o.stored = static_cast<uint32_t>(spans_.size());
  } else {
    ++dropped_;
  }
  open_.push_back(o);
  open_.back().start_ns = WallNs();
  return static_cast<uint32_t>(open_.size());
}

void SpanLog::End(uint32_t handle) {
  const int64_t now = WallNs();
  // Spans close innermost first; a handle names its depth.
  while (open_.size() >= handle && !open_.empty()) {
    Open o = open_.back();
    open_.pop_back();
    const int64_t dur = now - o.start_ns;
    Total& t = totals_[o.total];
    ++t.count;
    t.ns += dur;
    if (o.stored != 0) {
      spans_[o.stored - 1].start_ns = o.start_ns;
      spans_[o.stored - 1].end_ns = now;
    }
  }
}

void SpanLog::Add(const char* name, uint64_t request, int64_t start_ns, int64_t end_ns) {
  Total& t = totals_[TotalIndex(name)];
  ++t.count;
  t.ns += end_ns - start_ns;
  if (spans_.size() < capacity_) {
    spans_.push_back(Span{name, 0, request, start_ns, end_ns});
  } else {
    ++dropped_;
  }
}

const SpanLog::Total* SpanLog::FindTotal(const std::string& name) const {
  for (const Total& t : totals_) {
    if (name == t.name) return &t;
  }
  return nullptr;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"parent\":%u,\"request\":%llu,\"start_ns\":%lld,"
                 "\"end_ns\":%lld}\n",
                 s.name, s.parent, static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace ppmbench
