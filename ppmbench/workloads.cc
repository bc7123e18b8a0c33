#include "workloads.h"

#include <algorithm>
#include <array>
#include <functional>
#include <memory>

#include "alloc_count.h"
#include "core/cluster.h"
#include "core/wire.h"
#include "harness.h"
#include "host/loadgen.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "sim/rng.h"
#include "speed.h"
#include "tools/client.h"
#include "tools/ppmprof.h"

namespace ppmbench {

using namespace ppm;

std::optional<Workload> ParseWorkload(const std::string& name) {
  if (name == "kmsg") return Workload::kKmsg;
  if (name == "admin") return Workload::kAdmin;
  if (name == "collective") return Workload::kCollective;
  return std::nullopt;
}

const std::vector<std::string>& ProfLayers() {
  static const std::vector<std::string> layers = {
      "sim", "lpm", "wire", "store", "host", "net", "daemon", "tools", "other"};
  return layers;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The owner of the background load: not the user whose computation the
// workload administers, so no LPM tracks or reports it.
constexpr host::Uid kOtherUid = 200;

// --- frame sample for the codec replay (traced repetitions) -------------
//
// The network's payload classifier is a plain function pointer, so the
// sample it fills is file-scope state, set only around a traced window.
std::vector<std::vector<uint8_t>>* g_frame_sample = nullptr;
uint64_t g_frames_seen = 0;
constexpr uint64_t kFrameStride = 16;
constexpr size_t kSampleMax = 2048;

const char* SampleAndClassify(const uint8_t* payload, size_t len) {
  if (g_frame_sample != nullptr && g_frames_seen++ % kFrameStride == 0 &&
      g_frame_sample->size() < kSampleMax) {
    g_frame_sample->emplace_back(payload, payload + len);
  }
  return core::ClassifyWireFrame(payload, len);
}

// --- counters the program exports -----------------------------------------

struct HostCounts {
  uint64_t emitted = 0;
  uint64_t dropped = 0;
  core::LpmStats lpm;
  int64_t lpm_cpu_us = 0;
};

struct Counters {
  std::map<std::string, uint64_t> reg;
  std::map<std::string, HostCounts> hosts;

  double Reg(const std::string& name) const {
    auto it = reg.find(name);
    return it == reg.end() ? 0 : static_cast<double>(it->second);
  }
  // Sum of the registry counters whose names start with `prefix` and
  // end with `suffix`.
  double RegSum(const std::string& prefix, const std::string& suffix) const {
    double sum = 0;
    for (auto it = reg.lower_bound(prefix); it != reg.end(); ++it) {
      const std::string& n = it->first;
      if (n.compare(0, prefix.size(), prefix) != 0) break;
      if (n.size() >= suffix.size() &&
          n.compare(n.size() - suffix.size(), suffix.size(), suffix) == 0) {
        sum += static_cast<double>(it->second);
      }
    }
    return sum;
  }
  template <typename Field>
  double LpmSum(Field field) const {
    double sum = 0;
    for (const auto& [h, c] : hosts) sum += static_cast<double>(c.lpm.*field);
    return sum;
  }
};

Counters Capture(core::Cluster& cluster) {
  Counters out;
  obs::Registry::Instance().ForEachCounter(
      [&](const std::string& name, const obs::Counter& c) { out.reg[name] = c.value(); });
  for (const std::string& name : cluster.host_names()) {
    HostCounts& hc = out.hosts[name];
    host::Kernel& kernel = cluster.host(name).kernel();
    hc.emitted = kernel.stats().events_emitted;
    hc.dropped = kernel.stats().events_dropped;
    if (const core::Lpm* lpm = cluster.FindLpm(name, kUid)) {
      hc.lpm = lpm->stats();
      if (const host::Process* p = kernel.Find(lpm->pid())) {
        hc.lpm_cpu_us = p->rusage.cpu_time;
      }
    }
  }
  return out;
}

// Frames of the named opcodes in the window.
double OpFrames(const Counters& before, const Counters& after,
                std::initializer_list<const char*> ops) {
  double sum = 0;
  for (const char* op : ops) {
    const std::string key = std::string("net.op.") + op + ".frames";
    sum += after.Reg(key) - before.Reg(key);
  }
  return sum;
}

// Profiler self time grouped into the layers the per-layer table names.
const char* LayerOfSite(const std::string& site) {
  auto starts = [&](const char* p) { return site.rfind(p, 0) == 0; };
  if (site == "sim.run") return "sim";
  if (starts("lpm.") || starts("sim.dispatch.lpm-")) return "lpm";
  if (starts("wire.")) return "wire";
  if (starts("store.")) return "store";
  if (starts("sim.dispatch.kernel-event") || starts("sim.dispatch.proc-") ||
      starts("sim.dispatch.loadgen-") || starts("sim.dispatch.procfs-")) {
    return "host";
  }
  if (starts("sim.dispatch.frame-") || starts("sim.dispatch.syn-") ||
      starts("sim.dispatch.conn") || starts("sim.dispatch.circuit-")) {
    return "net";
  }
  if (starts("sim.dispatch.inetd-") || starts("sim.dispatch.pmd-") ||
      starts("sim.dispatch.ccs-ns-")) {
    return "daemon";
  }
  // The benchmark's own events: a worker's tick is the simulated process
  // making its syscalls (host work); the others issue client requests.
  if (starts("sim.dispatch.ppmbench-worker")) return "host";
  if (starts("sim.dispatch.ppmbench-")) return "tools";
  return "other";
}

bool Succeeded(const core::SnapshotResp& r) { return !r.forwarded_to.empty(); }
bool Succeeded(const core::StatResp& r) { return !r.records.empty(); }
bool Succeeded(const core::BarrierEnterResp& r) { return r.ok && r.released; }
template <typename Resp>
bool Succeeded(const Resp& r) {
  return r.ok;
}

// --- the workload skeleton -----------------------------------------------------

class Bench {
 public:
  Bench(const RepOptions& options, core::ClusterConfig config)
      : spans_(options.traced ? options.spans : nullptr),
        rng_(options.seed),
        warm_(spans_),
        rec_(spans_) {
    config.seed = options.seed;
    cluster_ = std::make_unique<core::Cluster>(config);
  }
  virtual ~Bench() {
    // Tearing the cluster down fails every pending request; their
    // callbacks must not drive the load any further.
    closing_ = true;
    background_.clear();
    cluster_.reset();
  }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  // Builds the cluster and warms it up.  False on failure, with a violation.
  virtual bool Setup() = 0;
  // Runs the timed load until every operation of the window has completed,
  // ticking `clock` between one-virtual-second steps.
  void RunWindow(RefClock& clock) {
    cur_ = &rec_;
    Start();
    sim::Simulator& sim = cluster_->simulator();
    const sim::SimTime limit = Now() + static_cast<sim::SimTime>(sim::Seconds(20'000));
    while (!Finished() && Now() < limit) {
      {
        ScopedSpan span(spans_, "sim.run");
        sim.RunUntil(Now() + static_cast<sim::SimTime>(sim::Seconds(1)));
      }
      clock.Tick();
    }
    if (!Finished()) violations_.push_back("window: the load did not finish");
  }
  // Lets in-flight work land, then runs the workload's own checks.
  void Settle() {
    cluster_->RunFor(sim::Seconds(5));
    Check();
  }
  // Operations completed in the window.
  virtual double Ops(const Counters& before, const Counters& after) const {
    (void)before;
    (void)after;
    return static_cast<double>(rec_.attempted() - rec_.failed());
  }
  // Workload-specific exact figures, over the window from `before` to `after`.
  virtual void Metrics(const Counters& before, const Counters& after,
                       std::map<std::string, double>& exact) const {
    (void)before;
    (void)after;
    (void)exact;
  }

  core::Cluster& cluster() { return *cluster_; }
  const Recorder& window() const { return rec_; }
  const Recorder& warmup() const { return warm_; }
  size_t sim_queue_peak() const { return sim_queue_peak_; }
  const std::vector<host::KernelEvent>& kevent_sample() const { return kevents_; }
  Violations& violations() { return violations_; }

 protected:
  virtual void Start() = 0;
  virtual bool Finished() const = 0;
  // Checks common to every workload; overrides add their own.
  virtual void Check() {
    std::vector<KernelEventCount> counts;
    for (const std::string& h : cluster_->host_names()) {
      const core::Lpm* lpm = cluster_->FindLpm(h, kUid);
      const host::KernelStats& ks = cluster_->host(h).kernel().stats();
      counts.push_back({h, ks.events_emitted, lpm ? lpm->stats().kernel_events : 0,
                        ks.events_dropped});
    }
    AddViolations(CheckKernelEvents(counts));
  }

  sim::SimTime Now() const { return cluster_->simulator().Now(); }
  sim::Simulator& simulator() { return cluster_->simulator(); }

  // Other users' work: one CPU-bound process per host, on the run queue
  // for a seeded 10-20% of a seeded 150-250 ms period, so each host's
  // load average (Table 1's variable, which scales every cost) differs
  // by host and by seed, as on a shared machine.
  void AddBackgroundLoad() {
    for (const std::string& name : cluster_->host_names()) {
      const double duty = 0.10 + 0.10 * static_cast<double>(rng_.Below(1001)) / 1000.0;
      const sim::SimDuration period = sim::Millis(150) + static_cast<sim::SimDuration>(
                                                             rng_.Below(100'001));
      background_.push_back(std::make_unique<host::LoadGenerator>(
          cluster_->host(name), kOtherUid, 1, duty, period));
    }
  }
  bool Fail(const std::string& what) {
    violations_.push_back(what);
    return false;
  }
  void NoteQueue() {
    sim_queue_peak_ = std::max(sim_queue_peak_, cluster_->simulator().pending_events());
  }
  void AddViolations(const Violations& v) {
    // A broken run can violate a check thousands of times; a few say enough.
    for (const std::string& s : v) {
      if (violations_.size() < 20) violations_.push_back(s);
    }
  }

  // Issues one client request: `send(callback)` makes the client call,
  // and `then(resp, ok)` runs from the reply callback after the reply is
  // recorded.  A request is due when it is issued: the closed loops issue
  // from the previous reply, and the open-loop generator fires at its
  // scheduled time (which Kmsg checks).
  template <typename Resp, typename Send, typename Then>
  void Issue(Op op, Send send, Then then) {
    Recorder* rec = cur_;
    const uint64_t token = rec->Begin(op, Now());
    ScopedSpan span(spans_, "tools.issue", token + 1);
    send([this, rec, token, then](const Resp& resp) {
      if (closing_) return;
      const bool ok = Succeeded(resp);
      rec->Complete(token, ok, Now());
      NoteQueue();
      then(resp, ok);
    });
  }

  SpanLog* spans_;
  sim::Rng rng_;
  Recorder warm_;  // requests issued while warming up
  Recorder rec_;   // requests of the timed window
  Recorder* cur_ = &warm_;
  std::unique_ptr<core::Cluster> cluster_;
  std::vector<std::unique_ptr<host::LoadGenerator>> background_;
  bool closing_ = false;
  size_t sim_queue_peak_ = 0;
  std::vector<host::KernelEvent> kevents_;
  Violations violations_;
};

// --- kmsg -------------------------------------------------------------------------
//
// Open loop on the simulator clock.  Host a runs 8 adopted workers traced
// with every event kind; each opens or closes a file every 5 ms (one pair
// per 10 ms).  A tool on a sends a stop or cont to a worker on b once per
// period, and, half a period later, reads a's History.  Each request's
// latency counts from its scheduled virtual time.
class Kmsg final : public Bench {
 public:
  static constexpr int kWorkers = 8;
  static constexpr int kRemoteWorkers = 2;
  static constexpr sim::SimDuration kToggle = sim::Millis(5);
  // One request of each class per period.  The saturation table in
  // README.md was measured by editing this constant.
  static constexpr sim::SimDuration kPeriod = sim::Millis(200);
  static constexpr sim::SimDuration kWarmup = sim::Seconds(10);
  static constexpr sim::SimDuration kWindow = sim::Seconds(250);
  static constexpr uint32_t kHistoryMax = 64;

  explicit Kmsg(const RepOptions& options) : Bench(options, core::ClusterConfig{}) {}

  bool Setup() override {
    core::Cluster& c = *cluster_;
    c.AddHost("a");
    c.AddHost("b");
    c.Ethernet({"a", "b"});
    InstallUser(c);
    AddBackgroundLoad();
    c.RunFor(sim::Millis(10));
    tool_ = ConnectSync(c, "a", "kmsg-tool");
    if (tool_ == nullptr) return Fail("setup: no tool session on a");
    for (int i = 0; i < kWorkers; ++i) {
      auto g = CreateSync(c, *tool_, "a", "worker");
      if (!g) return Fail("setup: worker create on a failed");
      workers_.push_back(Worker{g->pid, -1, "/tmp/kmsg." + std::to_string(i)});
    }
    for (int i = 0; i < kRemoteWorkers; ++i) {
      auto g = CreateSync(c, *tool_, "b", "remote-worker");
      if (!g) return Fail("setup: worker create on b failed");
      remote_.push_back(*g);
    }
    kernel_ = &c.host("a").kernel();
    // The generator starts now and runs through the warm-up into the
    // window; seeded phases (in us) spread the workers and requests.
    const sim::SimTime t0 = Now();
    window_start_ = t0 + static_cast<sim::SimTime>(kWarmup);
    end_ = window_start_ + static_cast<sim::SimTime>(kWindow);
    for (size_t i = 0; i < workers_.size(); ++i) {
      ScheduleWorker(i, t0 + rng_.Below(static_cast<uint64_t>(2 * kToggle)));
    }
    const sim::SimTime phase = t0 + rng_.Below(static_cast<uint64_t>(kPeriod));
    ScheduleSignal(phase, 0);
    ScheduleHistory(phase + static_cast<sim::SimTime>(kPeriod / 2));
    simulator().RunUntil(window_start_);
    return true;
  }

  double Ops(const Counters& before, const Counters& after) const override {
    return after.LpmSum(&core::LpmStats::kernel_events) -
           before.LpmSum(&core::LpmStats::kernel_events);
  }

  void Metrics(const Counters&, const Counters&,
               std::map<std::string, double>& exact) const override {
    const auto [first, last] = QuarterWriteP50();
    exact["sat.write_p50_q1_ms"] = first;
    exact["sat.write_p50_q4_ms"] = last;
    exact["gen.max_late_us"] = static_cast<double>(max_late_us_);
  }

 protected:
  void Start() override {}  // the generator has run since set-up
  bool Finished() const override {
    return Now() >= end_ && rec_.outstanding() == 0 && warm_.outstanding() == 0;
  }
  void Check() override {
    Bench::Check();
    AddViolations(CheckGeneratorOnTime(max_late_us_));
    const auto [first, last] = QuarterWriteP50();
    AddViolations(CheckSteadyOpenLoop(first, last, kMaxBacklogGrowth, rec_.failed()));
  }

 private:
  // The last quarter's write p50 may exceed the first quarter's by 25%.
  static constexpr double kMaxBacklogGrowth = 1.25;

  struct Worker {
    host::Pid pid;
    int fd;
    std::string path;
  };

  // Saturation guard: write p50 in the first and the last quarter of the window.
  std::pair<double, double> QuarterWriteP50() const {
    const sim::SimTime q = static_cast<sim::SimTime>(kWindow / 4);
    auto first = rec_.Latencies(OpClass::kWrite, window_start_, window_start_ + q);
    auto last = rec_.Latencies(OpClass::kWrite, end_ - q, end_);
    return {Percentile(first, 50), Percentile(last, 50)};
  }

  void NoteLate(sim::SimTime due) {
    max_late_us_ = std::max<uint64_t>(max_late_us_, Now() - due);
  }

  void ScheduleWorker(size_t i, sim::SimTime due) {
    simulator().ScheduleAt(
        due, [this, i, due] { WorkerTick(i, due); }, "ppmbench-worker");
  }
  void WorkerTick(size_t i, sim::SimTime due) {
    NoteLate(due);
    Worker& w = workers_[i];
    const bool opening = w.fd < 0;
    {
      ScopedSpan span(spans_, "host.kernel_call");
      if (opening) {
        w.fd = kernel_->OpenFileFor(w.pid, w.path, "r");
      } else {
        kernel_->CloseFileFor(w.pid, w.fd);
        w.fd = -1;
      }
    }
    if (spans_ != nullptr && kevents_.size() < kSampleMax) {
      host::KernelEvent ev;
      ev.kind = opening ? host::KEvent::kFileOpen : host::KEvent::kFileClose;
      ev.pid = w.pid;
      ev.at = Now();
      ev.detail = w.path;
      kevents_.push_back(std::move(ev));
    }
    NoteQueue();
    const sim::SimTime next = due + static_cast<sim::SimTime>(kToggle);
    if (next < end_) ScheduleWorker(i, next);
  }

  void ScheduleSignal(sim::SimTime due, uint64_t k) {
    simulator().ScheduleAt(due, [this, due, k] {
      NoteLate(due);
      // Each remote worker alternates stop and cont.
      const core::GPid target = remote_[k % remote_.size()];
      const host::Signal sig = (k / remote_.size()) % 2 == 0 ? host::Signal::kSigStop
                                                             : host::Signal::kSigCont;
      Issue<core::SignalResp>(
          Op::kSignal, [&](auto cb) { tool_->Signal(target, sig, cb); },
          [](const core::SignalResp&, bool) {});
      const sim::SimTime next = due + static_cast<sim::SimTime>(kPeriod);
      if (next < end_) ScheduleSignal(next, k + 1);
    }, "ppmbench-signal");
  }

  void ScheduleHistory(sim::SimTime due) {
    simulator().ScheduleAt(due, [this, due] {
      NoteLate(due);
      Issue<core::HistoryResp>(
          Op::kHistory,
          [&](auto cb) { tool_->History("a", host::kNoPid, kHistoryMax, cb); },
          [](const core::HistoryResp&, bool) {});
      const sim::SimTime next = due + static_cast<sim::SimTime>(kPeriod);
      if (next < end_) ScheduleHistory(next);
    }, "ppmbench-history");
  }

  tools::PpmClient* tool_ = nullptr;
  host::Kernel* kernel_ = nullptr;
  std::vector<Worker> workers_;
  std::vector<core::GPid> remote_;
  sim::SimTime window_start_ = 0;
  sim::SimTime end_ = 0;
  uint64_t max_late_us_ = 0;
};

// --- admin --------------------------------------------------------------------------
//
// Closed loop.  16 hosts on two Ethernet segments joined at gateway h0,
// so a target is 0, 1 or 2 hops from a tool.  4 sessions, on different
// hosts, each run create -> stop -> cont -> kill cycles on seed-chosen
// hosts, with Rusage / History reads of the target in between.  A session
// lives for kCyclesPerTool cycles, then its tool exits and a fresh one
// connects (through inetd and pmd), as the paper's short-lived tools do.
// The durable store is on.
class Admin final : public Bench {
 public:
  static constexpr int kHosts = 16;
  static constexpr int kCycles = 300;  // per session
  static constexpr int kCyclesPerTool = 10;
  static constexpr uint32_t kHistoryMax = 16;

  explicit Admin(const RepOptions& options) : Bench(options, Config()) {}

  bool Setup() override {
    core::Cluster& c = *cluster_;
    std::vector<std::string> seg1, seg2{"h0"};
    for (int i = 0; i < kHosts; ++i) {
      hosts_.push_back("h" + std::to_string(i));
      c.AddHost(hosts_.back());
      (i < kHosts / 2 ? seg1 : seg2).push_back(hosts_.back());
    }
    c.Ethernet(seg1);
    c.Ethernet(seg2);
    InstallUser(c);
    AddBackgroundLoad();
    c.RunFor(sim::Millis(10));
    for (const char* h : {"h2", "h5", "h10", "h13"}) {
      Session s;
      s.host = h;
      s.client = ConnectSync(c, h, "admin-tool");
      if (s.client == nullptr) return Fail(std::string("setup: no tool session on ") + h);
      sessions_.push_back(s);
    }
    // Warm-up: every session creates and kills one process on every host,
    // so each LPM and sibling circuit the window uses already exists.
    for (Session& s : sessions_) {
      for (const std::string& h : hosts_) {
        auto g = CreateSync(c, *s.client, h, "warmup");
        if (!g) return Fail("setup: warm-up create on " + h + " failed");
        auto killed = std::make_shared<std::optional<bool>>();
        s.client->Signal(*g, host::Signal::kSigKill,
                         [killed](const core::SignalResp& r) { *killed = r.ok; });
        if (!Pump(c, [&] { return killed->has_value(); }) || !**killed) {
          return Fail("setup: warm-up kill on " + h + " failed");
        }
      }
    }
    c.RunFor(sim::Seconds(1));
    return true;
  }

 protected:
  void Start() override {
    for (size_t i = 0; i < sessions_.size(); ++i) Step(i);
  }
  bool Finished() const override {
    for (const Session& s : sessions_) {
      if (!s.done) return false;
    }
    return rec_.outstanding() == 0;
  }

 private:
  struct Session {
    std::string host;
    tools::PpmClient* client = nullptr;
    int cycle = 0;
    int step = 0;
    std::string target_host;
    core::GPid target;
    bool done = false;
  };

  static core::ClusterConfig Config() {
    core::ClusterConfig config;
    config.lpm.durable_store = true;
    return config;
  }

  // One step of session i's cycle; each reply runs the next step.
  void Step(size_t i) {
    Session& s = sessions_[i];
    auto next = [this, i](const auto&, bool) {
      Session& t = sessions_[i];
      if (++t.step < 8) {
        Step(i);
        return;
      }
      t.step = 0;
      if (++t.cycle == kCycles) {
        t.done = true;
      } else if (t.cycle % kCyclesPerTool == 0) {
        // Not from inside the old tool's own reply callback.
        simulator().ScheduleIn(0, [this, i] { Reconnect(i); }, "ppmbench-reconnect");
      } else {
        Step(i);
      }
    };
    switch (s.step) {
      case 0:
        s.target_host = hosts_[rng_.Below(hosts_.size())];
        Issue<core::CreateResp>(
            Op::kCreate,
            [&](auto cb) {
              s.client->CreateProcess(s.target_host, "job", {}, cb, false);
            },
            [this, i, next](const core::CreateResp& r, bool ok) {
              sessions_[i].target = r.gpid;
              next(r, ok);
            });
        break;
      case 2:
      case 4:
      case 6: {
        const host::Signal sig = s.step == 2   ? host::Signal::kSigStop
                                 : s.step == 4 ? host::Signal::kSigCont
                                               : host::Signal::kSigKill;
        Issue<core::SignalResp>(s.step == 6 ? Op::kKill : Op::kSignal,
                                [&](auto cb) { s.client->Signal(s.target, sig, cb); },
                                next);
        break;
      }
      case 1:
      case 5:
        Issue<core::RusageResp>(
            Op::kRusage, [&](auto cb) { s.client->Rusage(s.target_host, cb); }, next);
        break;
      default:  // 3, 7
        Issue<core::HistoryResp>(
            Op::kHistory,
            [&](auto cb) {
              s.client->History(s.target_host, s.target.pid, kHistoryMax, cb);
            },
            next);
        break;
    }
  }

  void Reconnect(size_t i) {
    Session& s = sessions_[i];
    host::Host& h = cluster_->host(s.host);
    s.client->Disconnect();
    h.kernel().Exit(s.client->pid(), 0);
    s.client = tools::SpawnTool(h, kUser, kUid, "admin-tool");
    const uint64_t token = cur_->Begin(Op::kConnect, Now());
    Recorder* rec = cur_;
    s.client->Start([this, i, rec, token](bool ok, std::string) {
      if (closing_) return;
      rec->Complete(token, ok, Now());
      if (ok) {
        Step(i);
      } else {
        sessions_[i].done = true;  // no session, no further cycles
      }
    });
  }

  std::vector<std::string> hosts_;
  std::vector<Session> sessions_;
};

// --- collective -------------------------------------------------------------------
//
// Closed loop in BSP rounds.  48 hosts on two segments joined at h0, which
// heads .recovery and so is the CCS; every remote host holds 6 sleeping
// processes (Table 3's load).  Each round, each of 4 tools does one
// seed-chosen operation (Snapshot or Stat reads, a GenvSet write), then
// enters the round's barrier; the round ends when all 4 are released.
class Collective final : public Bench {
 public:
  static constexpr int kHosts = 48;
  static constexpr int kProcs = 6;
  static constexpr int kRounds = 400;

  explicit Collective(const RepOptions& options)
      : Bench(options, core::ClusterConfig{}) {}

  bool Setup() override {
    core::Cluster& c = *cluster_;
    std::vector<std::string> seg1, seg2{"h0"};
    for (int i = 0; i < kHosts; ++i) {
      hosts_.push_back("h" + std::to_string(i));
      c.AddHost(hosts_.back());
      (i < kHosts / 2 ? seg1 : seg2).push_back(hosts_.back());
    }
    c.Ethernet(seg1);
    c.Ethernet(seg2);
    InstallUser(c, {"h0"});
    AddBackgroundLoad();
    c.RunFor(sim::Millis(10));
    tools::PpmClient* root = ConnectSync(c, "h0", "populate");
    if (root == nullptr) return Fail("setup: no tool session on h0");
    for (int i = 1; i < kHosts; ++i) {
      populated_.push_back(hosts_[i]);
      for (int p = 0; p < kProcs; ++p) {
        if (!CreateSync(c, *root, hosts_[i], "sleeper")) {
          return Fail("setup: create on " + hosts_[i] + " failed");
        }
      }
    }
    root->Disconnect();
    c.host("h0").kernel().Exit(root->pid(), 0);
    for (const char* h : {"h1", "h13", "h25", "h37"}) {
      tools::PpmClient* t = ConnectSync(c, h, "collective-tool");
      if (t == nullptr) return Fail(std::string("setup: no tool session on ") + h);
      tools_.push_back(t);
    }
    // Warm-up round (barrier epoch 1; epochs start above 0): one snapshot
    // per tool, then the barrier.
    for (tools::PpmClient* t : tools_) {
      auto snap = std::make_shared<std::optional<core::SnapshotResp>>();
      t->Snapshot([snap](const core::SnapshotResp& r) { *snap = r; });
      if (!Pump(c, [&] { return snap->has_value(); })) {
        return Fail("setup: warm-up snapshot");
      }
      AddViolations(CheckSnapshot(**snap, kHosts, populated_, kProcs));
    }
    auto released = std::make_shared<int>(0);
    for (tools::PpmClient* t : tools_) {
      t->BarrierEnter("round", 1, static_cast<uint32_t>(tools_.size()),
                      [released](const core::BarrierEnterResp& r) {
                        if (r.ok && r.released) ++*released;
                      });
    }
    if (!Pump(c, [&] { return *released == static_cast<int>(tools_.size()); })) {
      return Fail("setup: warm-up barrier");
    }
    c.RunFor(sim::Seconds(1));
    return true;
  }

  void Metrics(const Counters& before, const Counters& after,
               std::map<std::string, double>& exact) const override {
    exact["bcast.hosts_covered"] = Ratio(covered_sum_, static_cast<double>(snapshots_));
    exact["group.frames_per_barrier"] =
        OpFrames(before, after,
                 {"BarrierEnterReq", "BarrierEnterResp", "BarrierJoinReq",
                  "BarrierReleaseReq"}) /
        kRounds;
  }

 protected:
  void Start() override {
    round_ = 2;  // the barrier epoch; the window runs epochs 2 .. kRounds + 1
    StartRound();
  }
  bool Finished() const override { return done_ && rec_.outstanding() == 0; }
  void Check() override {
    Bench::Check();
    EnvarTables tables;
    for (const std::string& h : hosts_) {
      auto& table = tables[h];
      if (const core::Lpm* lpm = cluster_->FindLpm(h, kUid)) {
        for (const auto& [key, envar] : lpm->group_table().envars()) {
          table[key] = envar.value;
        }
      }
    }
    AddViolations(CheckEnvars(tables, last_set_));
  }

 private:
  void StartRound() {
    released_ = 0;
    for (size_t i = 0; i < tools_.size(); ++i) {
      tools::PpmClient* t = tools_[i];
      auto enter = [this, i](const auto&, bool) { EnterBarrier(i); };
      const Pick pick = Deal();
      if (pick == Pick::kSnapshot) {
        Issue<core::SnapshotResp>(
            Op::kSnapshot, [&](auto cb) { t->Snapshot(cb); },
            [this, enter](const core::SnapshotResp& r, bool ok) {
              ++snapshots_;
              covered_sum_ += static_cast<double>(r.forwarded_to.size());
              AddViolations(CheckSnapshot(r, kHosts, populated_, kProcs));
              enter(r, ok);
            });
      } else if (pick == Pick::kStat) {
        Issue<core::StatResp>(
            Op::kStat, [&](auto cb) { t->Stat(false, cb); }, enter);
      } else {
        const std::string key = "t" + std::to_string(i);
        const std::string value = "r" + std::to_string(round_);
        last_set_[key] = value;
        Issue<core::EnvarSetResp>(
            Op::kGenvSet, [&](auto cb) { t->GenvSet(key, value, cb); }, enter);
      }
    }
  }

  // The operation mix is dealt from a deck of 10 (4 Snapshot, 3 Stat,
  // 3 GenvSet) reshuffled when it runs out, so every window has exactly
  // the same mix and only its order depends on the seed.  Independent
  // draws made the number of Snapshots, and so bytes per op, vary by
  // about 4% from seed to seed.
  enum class Pick : uint8_t { kSnapshot, kStat, kGenvSet };
  Pick Deal() {
    if (dealt_ == deck_.size()) {
      for (size_t i = deck_.size() - 1; i > 0; --i) {
        std::swap(deck_[i], deck_[rng_.Below(i + 1)]);
      }
      dealt_ = 0;
    }
    return deck_[dealt_++];
  }

  void EnterBarrier(size_t i) {
    Issue<core::BarrierEnterResp>(
        Op::kBarrier,
        [&](auto cb) {
          tools_[i]->BarrierEnter("round", round_,
                                  static_cast<uint32_t>(tools_.size()), cb);
        },
        [this](const core::BarrierEnterResp&, bool) {
          if (++released_ < tools_.size()) return;
          if (round_ == kRounds + 1) {
            done_ = true;
          } else {
            ++round_;
            StartRound();
          }
        });
  }

  std::vector<std::string> hosts_;
  std::vector<std::string> populated_;
  std::vector<tools::PpmClient*> tools_;
  std::map<std::string, std::string> last_set_;
  std::array<Pick, 10> deck_ = {Pick::kSnapshot, Pick::kSnapshot, Pick::kSnapshot,
                                Pick::kSnapshot, Pick::kStat,     Pick::kStat,
                                Pick::kStat,     Pick::kGenvSet,  Pick::kGenvSet,
                                Pick::kGenvSet};
  size_t dealt_ = deck_.size();
  uint64_t round_ = 0;
  size_t released_ = 0;
  bool done_ = false;
  uint64_t snapshots_ = 0;
  double covered_sum_ = 0;
};

std::unique_ptr<Bench> MakeBench(Workload w, const RepOptions& options) {
  switch (w) {
    case Workload::kKmsg: return std::make_unique<Kmsg>(options);
    case Workload::kAdmin: return std::make_unique<Admin>(options);
    case Workload::kCollective: return std::make_unique<Collective>(options);
  }
  return nullptr;
}

// --- per-layer figures ---------------------------------------------------------------

void ExactMetrics(const Bench& bench, const Counters& b, const Counters& a, double ops,
                  std::map<std::string, double>& m) {
  auto d = [&](const std::string& name) { return a.Reg(name) - b.Reg(name); };
  auto lpm = [&](uint64_t core::LpmStats::*field) {
    return a.LpmSum(field) - b.LpmSum(field);
  };
  const Recorder& rec = bench.window();

  // End-to-end figures that depend only on the seed.
  auto reads = rec.Latencies(OpClass::kRead);
  auto writes = rec.Latencies(OpClass::kWrite);
  m["samples.read"] = static_cast<double>(reads.size());
  m["samples.write"] = static_cast<double>(writes.size());
  m["read_p50_ms"] = Percentile(reads, 50);
  m["read_p99_ms"] = Percentile(reads, 99);
  m["write_p50_ms"] = Percentile(writes, 50);
  m["write_p99_ms"] = Percentile(writes, 99);
  m["fail_ratio"] =
      Ratio(static_cast<double>(rec.failed()), static_cast<double>(rec.attempted()));
  m["bytes_per_op"] = Ratio(d("net.bytes.sent"), ops);
  m["ops"] = ops;

  // sim
  m["sim.events_per_op"] = Ratio(d("sim.events.fired"), ops);
  m["sim.queue_peak"] = static_cast<double>(bench.sim_queue_peak());
  // host
  double emitted = 0, dropped = 0, cpu_us = 0;
  for (const auto& [h, hc] : a.hosts) {
    auto it = b.hosts.find(h);
    const HostCounts start = it != b.hosts.end() ? it->second : HostCounts{};
    emitted += static_cast<double>(hc.emitted - start.emitted);
    dropped += static_cast<double>(hc.dropped - start.dropped);
    cpu_us += static_cast<double>(hc.lpm_cpu_us - start.lpm_cpu_us);
  }
  m["host.kevents_per_op"] = Ratio(emitted, ops);
  m["host.kevents_dropped"] = dropped;
  // wire
  const double encoded = d("wire.frames.encoded");
  m["wire.frames_per_op"] = Ratio(encoded, ops);
  m["wire.hdr_bytes_per_frame"] =
      Ratio(d("wire.hdr.checksum.bytes") + d("wire.hdr.trace.bytes") +
                d("wire.hdr.deadline.bytes"),
            encoded);
  // net
  const double frames = d("net.frames.sent");
  m["net.frames_per_op"] = Ratio(frames, ops);
  m["net.hops_per_frame"] =
      Ratio(a.RegSum("net.link.", ".frames") - b.RegSum("net.link.", ".frames"), frames);
  m["net.conns_opened_per_op"] = Ratio(d("net.conns.opened"), ops);
  m["net.frames_dropped"] = d("net.frames.dropped");
  // lpm
  m["lpm.requests_per_op"] = Ratio(lpm(&core::LpmStats::requests), ops);
  m["lpm.forwards_per_op"] = Ratio(lpm(&core::LpmStats::forwards), ops);
  m["lpm.queue_peak"] = obs::HealthMonitor::Instance().WatermarkOf("lpm.queue.depth");
  m["lpm.cpu_ms_per_op"] = Ratio(cpu_us / 1000.0, ops);
  const double reuses = lpm(&core::LpmStats::handler_reuses);
  m["lpm.handler_reuse_ratio"] =
      Ratio(reuses, reuses + lpm(&core::LpmStats::handlers_created));
  m["lpm.shed"] = lpm(&core::LpmStats::requests_shed);
  m["lpm.retries"] = lpm(&core::LpmStats::retries);
  m["lpm.deadline_expired"] = lpm(&core::LpmStats::deadline_expired);
  m["lpm.eventlog_dropped"] = d("core.eventlog.dropped.total");
  // bcast: the snapshot and STAT floods
  size_t snapshots = 0, stats = 0, barriers = 0, genv_sets = 0, connects = 0;
  for (const Request& r : rec.requests()) {
    snapshots += r.op == Op::kSnapshot;
    stats += r.op == Op::kStat;
    barriers += r.op == Op::kBarrier;
    genv_sets += r.op == Op::kGenvSet;
    connects += r.op == Op::kConnect;
  }
  const double collectives = static_cast<double>(snapshots + stats);
  m["bcast.frames_per_collective"] =
      Ratio(OpFrames(b, a, {"SnapshotReq", "SnapshotResp", "StatReq", "StatResp"}),
            collectives);
  m["bcast.dup_ratio"] = Ratio(lpm(&core::LpmStats::bcast_duplicates), collectives);
  m["bcast.hosts_covered"] = 0;
  // group
  auto barrier_ms = rec.Latencies(Op::kBarrier);
  m["group.barrier_p50_ms"] = Percentile(barrier_ms, 50);
  m["group.barrier_p99_ms"] = Percentile(barrier_ms, 99);
  m["group.frames_per_barrier"] = 0;
  m["group.frames_per_genv_set"] =
      Ratio(OpFrames(b, a, {"EnvarSetReq", "EnvarSetResp", "EnvarUpdate"}),
            static_cast<double>(genv_sets));
  // kmsg only: the saturation guard.
  m["sat.write_p50_q1_ms"] = 0;
  m["sat.write_p50_q4_ms"] = 0;
  m["gen.max_late_us"] = 0;
  // daemon
  m["pmd.requests_per_session"] = Ratio(d("pmd.requests"), static_cast<double>(connects));
  const double hits = d("pmd.lookup.hits");
  m["pmd.lookup_hit_ratio"] = Ratio(hits, hits + d("pmd.lookup.misses"));
  m["pmd.lpms_created"] = d("pmd.lpms.created");
  m["inetd.dispatches"] = d("sim.events.inetd-dispatch");
  // store
  m["store.appends_per_op"] = Ratio(d("store.journal.appends"), ops);
  m["store.append_bytes_per_op"] = Ratio(d("store.append_bytes"), ops);
  m["store.fsyncs_per_op"] = Ratio(d("store.fsyncs"), ops);
  m["store.checkpoints"] = d("store.checkpoints");
  // tools
  for (int i = 0; i < kOpCount; ++i) {
    const Op op = static_cast<Op>(i);
    auto ms = rec.Latencies(op);
    const std::string base = std::string("tools.") + OpName(op);
    m[base + ".p50_ms"] = Percentile(ms, 50);
    m[base + ".p99_ms"] = Percentile(ms, 99);
  }
  bench.Metrics(b, a, m);
}

// Replays the sampled frames through the codec: decode every frame, then
// encode every decoded message.  Returns {encode ns, decode ns} per frame.
std::pair<double, double> ReplayMsgCodec(const std::vector<std::vector<uint8_t>>& frames,
                                         SpanLog* spans) {
  std::vector<core::Msg> msgs;
  msgs.reserve(frames.size());
  int64_t decode_ns = 0, encode_ns = 0;
  {
    ScopedSpan span(spans, "wire.replay.decode");
    const int64_t t0 = WallNs();
    for (const auto& f : frames) {
      if (auto msg = core::Parse(core::WireView(f))) msgs.push_back(std::move(*msg));
    }
    decode_ns = WallNs() - t0;
  }
  {
    ScopedSpan span(spans, "wire.replay.encode");
    core::WireBuffer buf;
    const int64_t t0 = WallNs();
    for (const core::Msg& msg : msgs) core::Serialize(msg, obs::TraceContext{}, buf);
    encode_ns = WallNs() - t0;
  }
  // Frames the core codec does not own (the pmd protocol) are skipped.
  const double n = static_cast<double>(msgs.size());
  return {Ratio(static_cast<double>(encode_ns), n),
          Ratio(static_cast<double>(decode_ns), n)};
}

std::pair<double, double> ReplayKeventCodec(const std::vector<host::KernelEvent>& events,
                                            SpanLog* spans) {
  if (events.empty()) return {0, 0};
  std::vector<std::vector<uint8_t>> frames;
  frames.reserve(events.size());
  int64_t encode_ns = 0, decode_ns = 0;
  {
    ScopedSpan span(spans, "wire.replay.kevent_encode");
    core::WireBuffer buf;
    const int64_t t0 = WallNs();
    for (const host::KernelEvent& ev : events) core::SerializeKernelEvent(ev, buf);
    encode_ns = WallNs() - t0;
    for (const host::KernelEvent& ev : events) {
      frames.push_back(core::SerializeKernelEvent(ev));
    }
  }
  {
    ScopedSpan span(spans, "wire.replay.kevent_decode");
    size_t parsed = 0;
    const int64_t t0 = WallNs();
    for (const auto& f : frames) {
      parsed += core::ParseKernelEvent(core::WireView(f)).has_value();
    }
    decode_ns = WallNs() - t0;
    if (parsed != frames.size()) return {-1, -1};
  }
  const double n = static_cast<double>(events.size());
  return {static_cast<double>(encode_ns) / n, static_cast<double>(decode_ns) / n};
}

}  // namespace

RepResult RunRep(Workload workload, const RepOptions& options) {
  RepResult out;
  SpanLog* spans = options.traced ? options.spans : nullptr;
  ScopedSpan rep_span(spans, "rep");
  obs::Registry::Instance().Reset();
  obs::HealthMonitor::Instance().Reset();

  RefClock setup_clock;
  setup_clock.Start();
  std::unique_ptr<Bench> bench;
  bool ready = false;
  {
    ScopedSpan span(spans, "setup");
    bench = MakeBench(workload, options);
    ready = bench->Setup();
  }
  setup_clock.Stop();
  out.setup_s = static_cast<double>(setup_clock.wall_ns()) / 1e9;
  out.setup_ref_s = setup_clock.ref_ns() / 1e9;
  if (!ready) {
    out.violations = bench->violations();
    return out;
  }

  core::Cluster& cluster = bench->cluster();
  std::vector<std::vector<uint8_t>> frames;
  if (options.traced) {
    g_frame_sample = &frames;
    g_frames_seen = 0;
    cluster.network().set_payload_classifier(&SampleAndClassify);
  }
  const Counters before = Capture(cluster);
  SpanLog::Total calls_before{"host.kernel_call"};
  if (spans != nullptr) {
    if (const SpanLog::Total* t = spans->FindTotal("host.kernel_call")) calls_before = *t;
  }
  obs::HealthMonitor::Instance().Reset();
  obs::prof::ProfRegistry::Instance().Reset();
  alloc::Reset();
  RefClock window_clock;
  window_clock.Start();
  alloc::Start();
  {
    ScopedSpan span(spans, "window");
    bench->RunWindow(window_clock);
  }
  alloc::Stop();
  window_clock.Stop();
  const int64_t window_ns = window_clock.wall_ns();
  const auto prof_sites = obs::prof::ProfRegistry::Instance().Snapshot();
  g_frame_sample = nullptr;
  cluster.network().set_payload_classifier(&core::ClassifyWireFrame);
  const Counters after = Capture(cluster);

  out.window_s = static_cast<double>(window_ns) / 1e9;
  out.window_ref_s = window_clock.ref_ns() / 1e9;
  out.kernel_ms = window_clock.MedianKernelNs() / 1e6;
  out.ops = bench->Ops(before, after);
  out.attempted = bench->window().attempted();
  out.failed = bench->window().failed();
  out.allocs = alloc::count();
  out.alloc_bytes = alloc::bytes();
  ExactMetrics(*bench, before, after, out.ops, out.exact);

  if (options.traced) {
    std::map<std::string, double>& w = out.wall;
    w["sim.ns_per_event"] =
        Ratio(static_cast<double>(window_ns), after.Reg("sim.events.fired") -
                                                  before.Reg("sim.events.fired"));
    const SpanLog::Total* kc = spans->FindTotal("host.kernel_call");
    w["host.kernel_call_ns"] =
        kc != nullptr ? Ratio(static_cast<double>(kc->ns - calls_before.ns),
                              static_cast<double>(kc->count - calls_before.count))
                      : 0;
    const auto [msg_enc, msg_dec] = ReplayMsgCodec(frames, spans);
    w["wire.msg.encode_ns"] = msg_enc;
    w["wire.msg.decode_ns"] = msg_dec;
    const auto [kev_enc, kev_dec] = ReplayKeventCodec(bench->kevent_sample(), spans);
    w["wire.kevent.encode_ns"] = kev_enc;
    w["wire.kevent.decode_ns"] = kev_dec;
    w["obs.prof.attribution_pct"] =
        Ratio(static_cast<double>(tools::RootTotalNs(prof_sites)) * 100.0,
              static_cast<double>(window_ns));
    std::map<std::string, double> self;
    for (const std::string& layer : ProfLayers()) self[layer] = 0;
    for (const auto& site : prof_sites) {
      self[LayerOfSite(site.name)] += static_cast<double>(site.self_ns());
    }
    for (const auto& [layer, ns] : self) w["obs.self_ns." + layer] = Ratio(ns, out.ops);
  }

  {
    ScopedSpan span(spans, "settle");
    bench->Settle();
    Violations& v = bench->violations();
    for (const std::string& s : bench->warmup().Violations()) v.push_back("warm-up " + s);
    for (const std::string& s : bench->window().Violations()) v.push_back(s);
    std::map<std::string, uint64_t> counters;
    obs::Registry::Instance().ForEachCounter(
        [&](const std::string& name, const obs::Counter& c) {
          counters[name] = c.value();
        });
    for (const std::string& s : CheckOpcodePartition(counters)) v.push_back(s);
    out.violations = v;
  }
  {
    ScopedSpan span(spans, "teardown");
    bench.reset();
  }
  return out;
}

}  // namespace ppmbench
