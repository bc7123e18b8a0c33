// harness.h — small helpers shared by the workloads and the paper probes.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/cluster.h"
#include "tools/client.h"

namespace ppmbench {

// The user every workload and probe runs as, shared with the repository's
// bench binaries.  Their RunUntil-based helpers poll in 5 ms steps, so the
// benchmark keeps its own event-by-event helpers below.
using ppm::bench::InstallUser;
using ppm::bench::kUid;
using ppm::bench::kUser;

// Fires events one at a time until `done()` holds, so the simulator stops
// on the event that completed the operation.  False when the queue runs
// dry or `horizon` of virtual time passes first.
template <typename Pred>
bool Pump(ppm::core::Cluster& cluster, Pred done,
          ppm::sim::SimDuration horizon = ppm::sim::Seconds(120)) {
  ppm::sim::Simulator& sim = cluster.simulator();
  const ppm::sim::SimTime deadline = sim.Now() + static_cast<ppm::sim::SimTime>(horizon);
  while (!done()) {
    if (sim.NextEventTime() > deadline || !sim.Step()) return false;
  }
  return true;
}

// Spawns a tool on `host` and waits for its session; nullptr on failure.
inline ppm::tools::PpmClient* ConnectSync(ppm::core::Cluster& cluster,
                                          const std::string& host,
                                          const std::string& tool = "ppmbench") {
  ppm::tools::PpmClient* client =
      ppm::tools::SpawnTool(cluster.host(host), kUser, kUid, tool);
  // Results live in shared cells: a callback that fires after a failed
  // wait (at teardown, say) must not write into a dead stack frame.
  auto ok = std::make_shared<std::optional<bool>>();
  client->Start([ok](bool success, std::string) { *ok = success; });
  if (!Pump(cluster, [&] { return ok->has_value(); }) || !**ok) return nullptr;
  return client;
}

// Creates a sleeping process (the paper measured lightly loaded hosts).
inline std::optional<ppm::core::GPid> CreateSync(ppm::core::Cluster& cluster,
                                                 ppm::tools::PpmClient& client,
                                                 const std::string& host,
                                                 const std::string& command) {
  auto resp = std::make_shared<std::optional<ppm::core::CreateResp>>();
  client.CreateProcess(host, command, {},
                       [resp](const ppm::core::CreateResp& r) { *resp = r; },
                       /*initially_running=*/false);
  if (!Pump(cluster, [&] { return resp->has_value(); }) || !(*resp)->ok) {
    return std::nullopt;
  }
  return (*resp)->gpid;
}

}  // namespace ppmbench
