// selftest — shows that each of the benchmark's correctness checks fires.
//
// For every check: a clean input passes, and an input with exactly that
// violation injected is reported.  Run it with
//   python3 ppmbench/run.py --selftest
// Exits 0 when every check behaved, 1 otherwise.
#include <cmath>
#include <cstdio>
#include <string>

#include "checks.h"
#include "recorder.h"

namespace ppmbench {
namespace {

int g_failures = 0;

void Expect(const char* check, bool clean_passes, bool injected_fires) {
  std::printf("%-24s clean input %-6s injected violation %s\n", check,
              clean_passes ? "passes" : "FIRES", injected_fires ? "reported" : "MISSED");
  if (!clean_passes || !injected_fires) ++g_failures;
}

void OneReply() {
  Recorder clean;
  clean.Complete(clean.Begin(Op::kSignal, 0), true, 5);
  Recorder twice;
  const uint64_t t = twice.Begin(Op::kSignal, 0);
  twice.Complete(t, true, 5);
  twice.Complete(t, true, 6);
  Recorder never;
  never.Begin(Op::kHistory, 0);
  Expect("one-reply (duplicate)", clean.Violations().empty(),
         !twice.Violations().empty());
  Expect("one-reply (missing)", clean.Violations().empty(), !never.Violations().empty());
}

ppm::core::SnapshotResp Snapshot(size_t hosts, size_t procs) {
  ppm::core::SnapshotResp snap;
  for (size_t h = 0; h < hosts; ++h) {
    const std::string name = "h" + std::to_string(h);
    snap.forwarded_to.push_back(name);
    if (h == 0) continue;
    for (size_t p = 0; p < procs; ++p) {
      ppm::core::ProcRecord rec;
      rec.gpid = ppm::core::GPid{name, static_cast<ppm::host::Pid>(100 + p)};
      snap.records.push_back(rec);
    }
  }
  return snap;
}

void SnapshotCoverage() {
  std::vector<std::string> populated;
  for (int h = 1; h < 48; ++h) populated.push_back("h" + std::to_string(h));
  const auto clean = Snapshot(48, 6);
  auto short_hosts = clean;
  short_hosts.forwarded_to.pop_back();
  auto short_records = clean;
  short_records.records.pop_back();
  const bool passes = CheckSnapshot(clean, 48, populated, 6).empty();
  Expect("snapshot (hosts)", passes,
         !CheckSnapshot(short_hosts, 48, populated, 6).empty());
  Expect("snapshot (records)", passes,
         !CheckSnapshot(short_records, 48, populated, 6).empty());
}

void Envars() {
  const std::map<std::string, std::string> last = {{"t0", "r9"}, {"t1", "r7"}};
  EnvarTables tables = {
      {"h0", {{"t0", "r9"}, {"t1", "r7"}}}, {"h1", {{"t0", "r9"}, {"t1", "r7"}}}};
  const bool passes = CheckEnvars(tables, last).empty();
  auto stale = tables;
  stale["h1"]["t1"] = "r6";
  Expect("genv last value", passes, !CheckEnvars(stale, last).empty());
}

void KernelEvents() {
  const std::vector<KernelEventCount> clean = {{"a", 100, 90, 10}, {"b", 5, 5, 0}};
  auto lost = clean;
  lost[0].delivered = 89;
  Expect("kevent accounting", CheckKernelEvents(clean).empty(),
         !CheckKernelEvents(lost).empty());
}

void Partition() {
  const std::map<std::string, uint64_t> clean = {
      {"net.frames.sent", 5},           {"net.bytes.sent", 300},
      {"net.op.SignalReq.frames", 3},   {"net.op.SignalReq.bytes", 200},
      {"net.op.ctl.syn.frames", 2},     {"net.op.ctl.syn.bytes", 100},
  };
  auto extra = clean;
  extra["net.op.SignalResp.bytes"] = 1;
  Expect("opcode partition", CheckOpcodePartition(clean).empty(),
         !CheckOpcodePartition(extra).empty());
}

void SameRun() {
  const Fingerprint a = {{"bytes_per_op", 265.5}, {"read_p50_ms", 44.2}};
  auto b = a;
  b[1].second = std::nextafter(44.2, 45.0);  // one bit apart
  Expect("same seed, same figures", CheckSameRun(a, a).empty(),
         !CheckSameRun(a, b).empty());
}

void Saturation() {
  Expect("backlog growth", CheckSteadyOpenLoop(426.2, 430.0, 1.25, 0).empty(),
         !CheckSteadyOpenLoop(426.2, 2000.0, 1.25, 0).empty());
  Expect("requests refused", CheckSteadyOpenLoop(426.2, 430.0, 1.25, 0).empty(),
         !CheckSteadyOpenLoop(426.2, 430.0, 1.25, 3).empty());
  Expect("generator on time", CheckGeneratorOnTime(0).empty(),
         !CheckGeneratorOnTime(1).empty());
}

}  // namespace
}  // namespace ppmbench

int main() {
  using namespace ppmbench;
  OneReply();
  SnapshotCoverage();
  Envars();
  KernelEvents();
  Partition();
  SameRun();
  Saturation();
  std::printf("%s\n", g_failures == 0 ? "all checks fire" : "SOME CHECKS DID NOT BEHAVE");
  return g_failures == 0 ? 0 : 1;
}
