#include "paper.h"

#include <cmath>
#include <memory>
#include <optional>

#include "bench/snapshot_topologies.h"
#include "core/wire.h"
#include "harness.h"
#include "host/loadgen.h"

namespace ppmbench {

using namespace ppm;

namespace {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return -1;
  double sum = 0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

// --- Table 1 ------------------------------------------------------------

// One host, load pinned near `target_la` by duty-cycled CPU hogs, and a
// sleeping traced process whose open/close syscalls raise kernel events.
// Delivery time is the event sink's arrival time minus the kernel stamp.
double Table1Cell(host::HostType type, double target_la) {
  sim::Simulator sim(42);
  net::Network net(sim);
  host::Host machine(sim, net, net.AddHost("probe"), type, "probe");
  const int gens = static_cast<int>(target_la * 2.0 + 0.5);
  host::LoadGenerator load(machine, kUid, gens, gens ? target_la / gens : 0.0);
  host::Kernel& kernel = machine.kernel();
  const host::Pid subject =
      kernel.Spawn(host::kNoPid, kUid, "subject", nullptr, host::ProcState::kSleeping);
  const host::Pid sink =
      kernel.Spawn(host::kNoPid, kUid, "lpm", nullptr, host::ProcState::kSleeping);
  std::vector<host::Pid> adopted;
  kernel.Adopt(sink, subject, host::kTraceAll, kUid, &adopted);
  std::vector<double> ms;
  kernel.RegisterEventSink(kUid, sink, [&](const host::KernelEvent& ev) {
    // Only events that cross the kernel boundary as the 112-byte frame count.
    if (core::SerializeKernelEvent(ev).size() != core::kKernelEventWireBytes) return;
    ms.push_back(sim::ToMillis(static_cast<sim::SimDuration>(sim.Now() - ev.at)));
  });
  sim.RunUntil(sim.Now() + sim::Seconds(90));  // let the load average settle
  int fd = -1;
  for (int i = 0; i < 200; ++i) {
    if (fd < 0) {
      fd = kernel.OpenFileFor(subject, "/tmp/probe", "w");
    } else {
      kernel.CloseFileFor(subject, fd);
      fd = -1;
    }
    sim.RunUntil(sim.Now() + sim::Millis(250));
  }
  return Mean(ms);
}

// --- Table 2 ------------------------------------------------------------

// Issues one request and pumps until its reply; returns the virtual ms
// from issue to reply, or -1 when it failed.
template <typename Resp, typename Issue>
double TimeOne(core::Cluster& cluster, Issue issue) {
  auto resp = std::make_shared<std::optional<Resp>>();
  auto done_at = std::make_shared<sim::SimTime>(0);
  sim::Simulator& sim = cluster.simulator();
  const sim::SimTime start = sim.Now();
  issue([resp, done_at, &sim](const Resp& r) {
    *resp = r;
    *done_at = sim.Now();
  });
  if (!Pump(cluster, [&] { return resp->has_value(); }) || !(*resp)->ok) return -1;
  return sim::ToMillis(static_cast<sim::SimDuration>(*done_at - start));
}

// --- Table 3 ------------------------------------------------------------

double Table3Cell(const bench::Topology& topo) {
  core::Cluster cluster;
  cluster.AddHost("root");
  for (const auto& [from, to] : topo.edges) {
    if (!cluster.HasHost(to)) cluster.AddHost(to);
    cluster.Link(from, to);
  }
  InstallUser(cluster);
  cluster.RunFor(sim::Millis(10));
  tools::PpmClient* root = ConnectSync(cluster, "root", "snapshot");
  if (root == nullptr) return -1;
  // The tool on each edge's creator host makes the six remote processes,
  // so the sibling graph follows the process-creation pattern.
  for (const auto& [from, to] : topo.edges) {
    tools::PpmClient* creator =
        from == "root" ? root : ConnectSync(cluster, from, "spawner");
    if (creator == nullptr) return -1;
    for (int i = 0; i < 6; ++i) {
      if (!CreateSync(cluster, *creator, to, "proc" + std::to_string(i))) return -1;
    }
    if (creator != root) creator->Disconnect();
  }
  cluster.RunFor(sim::Seconds(1));
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    auto snap = std::make_shared<std::optional<sim::SimTime>>();
    sim::Simulator& sim = cluster.simulator();
    const sim::SimTime start = sim.Now();
    root->Snapshot([snap, &sim](const core::SnapshotResp&) { *snap = sim.Now(); });
    if (!Pump(cluster, [&] { return snap->has_value(); })) return -1;
    ms.push_back(sim::ToMillis(static_cast<sim::SimDuration>(**snap - start)));
    cluster.RunFor(sim::Millis(500));
  }
  return Mean(ms);
}

}  // namespace

std::vector<PaperCell> RunTable1() {
  // Paper Table 1; the VAX 11/780 has no value at 3 < la <= 4.
  constexpr double kPaper[3][4] = {
      {7.2, 9.8, 13.6, -1}, {7.2, 9.6, 12.8, 18.9}, {8.31, 14.13, 22.0, 42.7}};
  const host::HostType types[3] = {host::HostType::kVax780, host::HostType::kVax750,
                                   host::HostType::kSun2};
  const char* names[3] = {"vax780", "vax750", "sun2"};
  std::vector<PaperCell> out;
  for (int t = 0; t < 3; ++t) {
    for (int b = 0; b < 4; ++b) {
      if (kPaper[t][b] < 0) continue;
      const std::string name =
          std::string("paper.t1.") + names[t] + ".la" + std::to_string(b + 1) + "_ms";
      out.push_back({name, Table1Cell(types[t], 0.5 + b), kPaper[t][b]});
    }
  }
  return out;
}

std::vector<PaperCell> RunTable2() {
  // root -1 hop- mid -1 hop- far, unloaded VAX 11/780s.
  core::Cluster cluster;
  const char* hosts[3] = {"root", "mid", "far"};
  for (const char* h : hosts) cluster.AddHost(h);
  cluster.Link("root", "mid");
  cluster.Link("mid", "far");
  InstallUser(cluster);
  cluster.RunFor(sim::Millis(10));
  const char* dist[3] = {"within", "one_hop", "two_hops"};
  // Paper Table 2; remote creation has no table value.
  const double paper_create[3] = {77, -1, -1};
  const double paper_stop[3] = {30, 199, 210};
  std::vector<PaperCell> out;
  auto fail_all = [&] {
    out.clear();
    for (int d = 0; d < 3; ++d) {
      for (const char* op : {"create", "stop", "terminate"}) {
        out.push_back({std::string("paper.t2.") + dist[d] + "." + op + "_ms", -1,
                       -1});
      }
    }
    return out;
  };
  tools::PpmClient* client = ConnectSync(cluster, "root");
  if (client == nullptr) return fail_all();
  // Warm-up forks the LPMs, handlers and sibling circuits, which Table 2
  // excludes ("does not include the time to create the LPM or to form a
  // connection with it").
  for (const char* h : hosts) {
    if (!CreateSync(cluster, *client, h, "warmup")) return fail_all();
  }
  for (int d = 0; d < 3; ++d) {
    const std::string target = hosts[d];
    std::vector<double> create_ms, stop_ms, term_ms;
    for (int i = 0; i < 10; ++i) {
      auto gpid = std::make_shared<core::GPid>();
      create_ms.push_back(TimeOne<core::CreateResp>(cluster, [&](auto done) {
        client->CreateProcess(
            target, "victim", {},
            [gpid, done](const core::CreateResp& r) {
              *gpid = r.gpid;
              done(r);
            },
            /*initially_running=*/false);
      }));
      stop_ms.push_back(TimeOne<core::SignalResp>(cluster, [&](auto done) {
        client->Signal(*gpid, host::Signal::kSigStop, done);
      }));
      term_ms.push_back(TimeOne<core::SignalResp>(cluster, [&](auto done) {
        client->Signal(*gpid, host::Signal::kSigKill, done);
      }));
      if (create_ms.back() < 0 || stop_ms.back() < 0 || term_ms.back() < 0) {
        return fail_all();
      }
      cluster.RunFor(sim::Millis(200));  // drain exit events
    }
    const std::string base = std::string("paper.t2.") + dist[d] + ".";
    out.push_back({base + "create_ms", Mean(create_ms), paper_create[d]});
    out.push_back({base + "stop_ms", Mean(stop_ms), paper_stop[d]});
    out.push_back({base + "terminate_ms", Mean(term_ms), paper_stop[d]});
  }
  return out;
}

std::vector<PaperCell> RunTable3() {
  // The four shapes of Figure 5 as the repository reconstructs them.
  std::vector<PaperCell> out;
  const std::vector<bench::Topology> topologies = bench::SnapshotTopologies();
  for (size_t i = 0; i < topologies.size(); ++i) {
    out.push_back({"paper.t3.topo" + std::to_string(i + 1) + "_ms",
                   Table3Cell(topologies[i]), topologies[i].paper_ms});
  }
  return out;
}

double MeanErrPct(const std::vector<PaperCell>& cells) {
  double sum = 0;
  int n = 0;
  for (const PaperCell& c : cells) {
    if (c.paper <= 0) continue;
    sum += std::fabs(c.measured - c.paper) / c.paper * 100.0;
    ++n;
  }
  return n > 0 ? sum / n : 0;
}

}  // namespace ppmbench
