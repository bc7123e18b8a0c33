// workloads.h — the benchmark's three workloads and one repetition of each.
//
//   kmsg        2 hosts; 8 traced workers flood their manager with
//               kernel events; open-loop remote signals and History reads.
//   admin       16 hosts on two segments; 4 short-lived tool sessions
//               run create/stop/cont/kill cycles with reads in between;
//               durable store on.  Closed loop.
//   collective  48 hosts; 4 tools run BSP rounds of Snapshot / Stat /
//               GenvSet, each round closed by a barrier.  Closed loop.
//
// A repetition builds the cluster and warms it up (timed as set-up),
// runs a fixed amount of virtual work (the timed window), lets the
// cluster settle and checks it.  Everything except the wall-clock
// figures is a pure function of the seed, so two repetitions at one
// seed must agree exactly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "recorder.h"

namespace ppmbench {

enum class Workload : uint8_t { kKmsg, kAdmin, kCollective };
std::optional<Workload> ParseWorkload(const std::string& name);

struct RepOptions {
  uint64_t seed = 1;
  // Traced repetitions record spans (into `spans`) and the wall-clock
  // per-layer figures; untraced ones give the end-to-end figures.
  bool traced = false;
  SpanLog* spans = nullptr;
};

struct RepResult {
  double setup_s = 0;   // wall
  double window_s = 0;  // wall, reference-kernel runs excluded
  // The same two in reference time (speed.h).
  double setup_ref_s = 0;
  double window_ref_s = 0;
  double kernel_ms = 0;  // the window's median reference-kernel time
  double ops = 0;       // completed operations in the window
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t allocs = 0;       // heap allocations in the window
  uint64_t alloc_bytes = 0;
  // Figures that depend only on the seed: virtual-time latencies, bytes
  // and per-layer counts.  Keys are metric names.
  std::map<std::string, double> exact;
  // Host-time per-layer figures (traced repetitions only).
  std::map<std::string, double> wall;
  Violations violations;
};

RepResult RunRep(Workload workload, const RepOptions& options);

// The layers profiler self time is grouped into ("obs.self_ns.<layer>").
const std::vector<std::string>& ProfLayers();

}  // namespace ppmbench
