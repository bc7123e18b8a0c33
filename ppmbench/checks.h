// checks.h — the benchmark's correctness checks.
//
// Each check is a pure function of plain data the workload collected, and
// returns one message per violation (empty when the check holds), so the
// self-test can feed it a deliberately broken input and see it fire.
// Any violation makes the benchmark report "correct": false and exit
// non-zero.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/wire.h"

namespace ppmbench {

using Violations = std::vector<std::string>;

// A snapshot must cover every host and return `procs_per_host` records
// from each host in `populated`, and nothing else.
Violations CheckSnapshot(const ppm::core::SnapshotResp& snap, size_t hosts,
                         const std::vector<std::string>& populated,
                         size_t procs_per_host);

// Every LPM's envar table holds the last value each key was set to.
// `tables` maps an LPM's host to its key -> value table.
using EnvarTables = std::map<std::string, std::map<std::string, std::string>>;
Violations CheckEnvars(const EnvarTables& tables,
                       const std::map<std::string, std::string>& last_set);

// KernelStats.events_emitted == sum of LpmStats.kernel_events + events_dropped,
// on one host at quiescence.
struct KernelEventCount {
  std::string host;
  uint64_t emitted = 0;
  uint64_t delivered = 0;  // LpmStats.kernel_events of the host's managers
  uint64_t dropped = 0;
};
Violations CheckKernelEvents(const std::vector<KernelEventCount>& hosts);

// The net.op.<class>.frames / .bytes counters sum exactly to
// net.frames.sent / net.bytes.sent.  `counters` is every registry counter.
Violations CheckOpcodePartition(const std::map<std::string, uint64_t>& counters);

// Two runs at one seed give identical virtual metrics and counts.
using Fingerprint = std::vector<std::pair<std::string, double>>;
Violations CheckSameRun(const Fingerprint& first, const Fingerprint& again);

// An open-loop run is past saturation when its write latency grows from
// the first quarter to the last (its backlog is growing) or when any
// request fails (the bounded queue is refusing work as BUSY).
Violations CheckSteadyOpenLoop(double first_quarter_p50_ms, double last_quarter_p50_ms,
                               double max_growth, uint64_t failed);

// The open-loop generator runs on the simulator clock: every operation
// is issued at exactly its scheduled virtual time.
Violations CheckGeneratorOnTime(uint64_t max_late_us);

}  // namespace ppmbench
