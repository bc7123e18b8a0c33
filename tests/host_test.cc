// host_test.cc — the simulated UNIX kernel: processes, signals,
// adoption, kernel events, load average, calibration.
#include <string>

#include <gtest/gtest.h>

#include "host/calibration.h"
#include "host/host.h"
#include "host/kernel.h"
#include "host/loadgen.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace ppm::host {
namespace {

class KernelTest : public ::testing::Test {
 protected:
  KernelTest() : sim_(1), kernel_(sim_, HostType::kVax780, "testhost") {}
  sim::Simulator sim_;
  Kernel kernel_;
};

TEST_F(KernelTest, InitExists) {
  const Process* init = kernel_.Find(Kernel::kInitPid);
  ASSERT_NE(init, nullptr);
  EXPECT_EQ(init->uid, kRootUid);
  EXPECT_TRUE(init->alive());
}

TEST_F(KernelTest, SpawnSetsGenealogy) {
  Pid parent = kernel_.Spawn(kNoPid, 100, "parent");
  Pid child = kernel_.Spawn(parent, 100, "child");
  const Process* c = kernel_.Find(child);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->ppid, parent);
  EXPECT_EQ(c->uid, 100);
  EXPECT_EQ(c->command, "child");
  const Process* p = kernel_.Find(parent);
  ASSERT_EQ(p->children.size(), 1u);
  EXPECT_EQ(p->children[0], child);
  EXPECT_EQ(p->rusage.forks, 1u);
}

TEST_F(KernelTest, ExitMakesZombieUntilReaped) {
  Pid parent = kernel_.Spawn(kNoPid, 100, "parent");
  Pid child = kernel_.Spawn(parent, 100, "child");
  kernel_.Exit(child, 3);
  EXPECT_EQ(kernel_.Find(child)->state, ProcState::kZombie);
  EXPECT_EQ(kernel_.Find(child)->exit_status, 3);
  auto reaped = kernel_.Reap(parent);
  ASSERT_EQ(reaped.size(), 1u);
  EXPECT_EQ(reaped[0], child);
  EXPECT_EQ(kernel_.Find(child)->state, ProcState::kDead);
}

TEST_F(KernelTest, OrphansReparentToInit) {
  Pid parent = kernel_.Spawn(kNoPid, 100, "parent");
  Pid child = kernel_.Spawn(parent, 100, "child");
  kernel_.Exit(parent, 0);
  EXPECT_EQ(kernel_.Find(child)->ppid, Kernel::kInitPid);
  // Parent was a child of init, so its zombie is auto-reaped.
  EXPECT_EQ(kernel_.Find(parent)->state, ProcState::kDead);
}

TEST_F(KernelTest, ZombieChildOfExitingParentIsReaped) {
  Pid parent = kernel_.Spawn(kNoPid, 100, "parent");
  Pid child = kernel_.Spawn(parent, 100, "child");
  kernel_.Exit(child, 0);
  EXPECT_EQ(kernel_.Find(child)->state, ProcState::kZombie);
  kernel_.Exit(parent, 0);
  EXPECT_EQ(kernel_.Find(child)->state, ProcState::kDead);
}

TEST_F(KernelTest, SignalPermissionDenied) {
  Pid mine = kernel_.Spawn(kNoPid, 100, "mine");
  std::string err;
  EXPECT_FALSE(kernel_.PostSignal(mine, Signal::kSigKill, 200, &err));
  EXPECT_EQ(err, "permission denied");
  EXPECT_TRUE(kernel_.Find(mine)->alive());
}

TEST_F(KernelTest, RootCanSignalAnyone) {
  Pid mine = kernel_.Spawn(kNoPid, 100, "mine");
  EXPECT_TRUE(kernel_.PostSignal(mine, Signal::kSigKill, kRootUid));
  EXPECT_FALSE(kernel_.Find(mine)->alive());
}

TEST_F(KernelTest, SignalUnknownPidFails) {
  std::string err;
  EXPECT_FALSE(kernel_.PostSignal(9999, Signal::kSigTerm, kRootUid, &err));
  EXPECT_EQ(err, "no such process");
}

TEST_F(KernelTest, StopAndContinue) {
  Pid p = kernel_.Spawn(kNoPid, 100, "p");
  EXPECT_TRUE(kernel_.PostSignal(p, Signal::kSigStop, 100));
  EXPECT_EQ(kernel_.Find(p)->state, ProcState::kStopped);
  // Stop twice is idempotent.
  EXPECT_TRUE(kernel_.PostSignal(p, Signal::kSigStop, 100));
  EXPECT_EQ(kernel_.Find(p)->state, ProcState::kStopped);
  EXPECT_TRUE(kernel_.PostSignal(p, Signal::kSigCont, 100));
  EXPECT_EQ(kernel_.Find(p)->state, ProcState::kRunning);
}

TEST_F(KernelTest, TermKillsByDefault) {
  Pid p = kernel_.Spawn(kNoPid, 100, "p");
  EXPECT_TRUE(kernel_.PostSignal(p, Signal::kSigTerm, 100));
  const Process* proc = kernel_.Find(p);
  EXPECT_FALSE(proc->alive());
  EXPECT_TRUE(proc->killed_by_signal);
  EXPECT_EQ(proc->death_signal, Signal::kSigTerm);
}

struct CatchingBody : ProcessBody {
  int caught = 0;
  bool OnSignal(Signal) override {
    ++caught;
    return true;  // consume
  }
};

TEST_F(KernelTest, BodyCanCatchSignals) {
  auto body = std::make_unique<CatchingBody>();
  CatchingBody* raw = body.get();
  Pid p = kernel_.Spawn(kNoPid, 100, "catcher", std::move(body));
  EXPECT_TRUE(kernel_.PostSignal(p, Signal::kSigTerm, 100));
  EXPECT_TRUE(kernel_.Find(p)->alive());
  EXPECT_EQ(raw->caught, 1);
  // SIGKILL cannot be caught.
  EXPECT_TRUE(kernel_.PostSignal(p, Signal::kSigKill, 100));
  EXPECT_FALSE(kernel_.Find(p)->alive());
}

struct ShutdownBody : ProcessBody {
  bool* flag;
  explicit ShutdownBody(bool* f) : flag(f) {}
  void OnShutdown() override { *flag = true; }
};

TEST_F(KernelTest, OnShutdownRunsAtExit) {
  bool shut = false;
  Pid p = kernel_.Spawn(kNoPid, 100, "d", std::make_unique<ShutdownBody>(&shut));
  kernel_.Exit(p, 0);
  EXPECT_TRUE(shut);
}

TEST_F(KernelTest, SignalToZombieIsAcceptedNoop) {
  Pid parent = kernel_.Spawn(kNoPid, 100, "parent");
  Pid child = kernel_.Spawn(parent, 100, "child");
  kernel_.Exit(child, 0);
  EXPECT_TRUE(kernel_.PostSignal(child, Signal::kSigKill, 100));
  EXPECT_EQ(kernel_.Find(child)->state, ProcState::kZombie);
}

// --- adoption --------------------------------------------------------------

TEST_F(KernelTest, AdoptRequiresSameUid) {
  Pid lpm = kernel_.Spawn(kNoPid, 100, "lpm");
  Pid other = kernel_.Spawn(kNoPid, 200, "other");
  std::vector<Pid> adopted;
  std::string err;
  EXPECT_FALSE(kernel_.Adopt(lpm, other, kTraceAll, 100, &adopted, &err));
  EXPECT_NE(err.find("permission"), std::string::npos);
}

TEST_F(KernelTest, AdoptCoversDescendants) {
  Pid lpm = kernel_.Spawn(kNoPid, 100, "lpm");
  Pid root = kernel_.Spawn(kNoPid, 100, "root");
  Pid kid = kernel_.Spawn(root, 100, "kid");
  Pid grandkid = kernel_.Spawn(kid, 100, "grandkid");
  std::vector<Pid> adopted;
  EXPECT_TRUE(kernel_.Adopt(lpm, root, kTraceAll, 100, &adopted));
  EXPECT_EQ(adopted, (std::vector<Pid>{root, kid, grandkid}));
  EXPECT_EQ(kernel_.Find(grandkid)->adopter, lpm);
  EXPECT_EQ(kernel_.Find(grandkid)->trace_mask, kTraceAll);
}

TEST_F(KernelTest, ChildrenInheritAdoption) {
  Pid lpm = kernel_.Spawn(kNoPid, 100, "lpm");
  Pid root = kernel_.Spawn(kNoPid, 100, "root");
  std::vector<Pid> adopted;
  ASSERT_TRUE(kernel_.Adopt(lpm, root, kTraceExit, 100, &adopted));
  Pid later_child = kernel_.Spawn(root, 100, "later");
  EXPECT_EQ(kernel_.Find(later_child)->adopter, lpm);
  EXPECT_EQ(kernel_.Find(later_child)->trace_mask, kTraceExit);
}

TEST_F(KernelTest, SetTraceMaskRequiresAdoption) {
  Pid p = kernel_.Spawn(kNoPid, 100, "p");
  std::string err;
  EXPECT_FALSE(kernel_.SetTraceMask(p, kTraceExit, 100, &err));
  EXPECT_EQ(err, "process not adopted");
}

// --- kernel events -----------------------------------------------------------

TEST_F(KernelTest, TracedExitEmitsEventAfterDelay) {
  Pid lpm = kernel_.Spawn(kNoPid, 100, "lpm");
  Pid p = kernel_.Spawn(kNoPid, 100, "p");
  std::vector<Pid> adopted;
  ASSERT_TRUE(kernel_.Adopt(lpm, p, kTraceAll, 100, &adopted));
  std::vector<KernelEvent> events;
  kernel_.RegisterEventSink(100, lpm, [&](const KernelEvent& ev) { events.push_back(ev); });

  kernel_.Exit(p, 7);
  EXPECT_TRUE(events.empty());  // asynchronous: not visible yet
  sim_.Run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, KEvent::kExit);
  EXPECT_EQ(events[0].pid, p);
  EXPECT_EQ(events[0].status, 7);
  // Delivery took the Table-1 time (VAX 780 at ~zero load: ~6.35 ms).
  EXPECT_GE(sim_.Now(), 6000u);
  EXPECT_LE(sim_.Now(), 8000u);
}

TEST_F(KernelTest, UntracedEventsNotEmitted) {
  Pid lpm = kernel_.Spawn(kNoPid, 100, "lpm");
  Pid p = kernel_.Spawn(kNoPid, 100, "p");
  std::vector<Pid> adopted;
  ASSERT_TRUE(kernel_.Adopt(lpm, p, kTraceFork, 100, &adopted));  // only forks
  int events = 0;
  kernel_.RegisterEventSink(100, lpm, [&](const KernelEvent&) { ++events; });
  kernel_.Exit(p, 0);  // exit not traced
  sim_.Run();
  EXPECT_EQ(events, 0);
  EXPECT_GT(kernel_.stats().exits, 0u);
}

TEST_F(KernelTest, ForkOfTracedProcessEmitsForkEvent) {
  Pid lpm = kernel_.Spawn(kNoPid, 100, "lpm");
  Pid p = kernel_.Spawn(kNoPid, 100, "p");
  std::vector<Pid> adopted;
  ASSERT_TRUE(kernel_.Adopt(lpm, p, kTraceFork, 100, &adopted));
  std::vector<KernelEvent> events;
  kernel_.RegisterEventSink(100, lpm, [&](const KernelEvent& ev) { events.push_back(ev); });
  Pid child = kernel_.Spawn(p, 100, "child");
  sim_.Run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, KEvent::kFork);
  EXPECT_EQ(events[0].pid, p);
  EXPECT_EQ(events[0].other, child);
}

TEST_F(KernelTest, EventsDroppedWithoutSink) {
  Pid lpm = kernel_.Spawn(kNoPid, 100, "lpm");
  Pid p = kernel_.Spawn(kNoPid, 100, "p");
  std::vector<Pid> adopted;
  ASSERT_TRUE(kernel_.Adopt(lpm, p, kTraceAll, 100, &adopted));
  kernel_.Exit(p, 0);
  sim_.Run();
  EXPECT_GT(kernel_.stats().events_dropped, 0u);
}

TEST_F(KernelTest, StaleEventNotDeliveredToReplacementSink) {
  Pid lpm = kernel_.Spawn(kNoPid, 100, "lpm");
  Pid p = kernel_.Spawn(kNoPid, 100, "p");
  std::vector<Pid> adopted;
  ASSERT_TRUE(kernel_.Adopt(lpm, p, kTraceAll, 100, &adopted));
  int old_sink = 0, new_sink = 0;
  kernel_.RegisterEventSink(100, lpm, [&](const KernelEvent&) { ++old_sink; });
  kernel_.Exit(p, 0);  // event in flight toward old sink
  kernel_.UnregisterEventSink(100);
  Pid lpm2 = kernel_.Spawn(kNoPid, 100, "lpm2");
  kernel_.RegisterEventSink(100, lpm2, [&](const KernelEvent&) { ++new_sink; });
  sim_.Run();
  EXPECT_EQ(old_sink, 0);
  EXPECT_EQ(new_sink, 0);  // message was addressed to the dead manager
}

// --- files & IPC ------------------------------------------------------------------

TEST_F(KernelTest, OpenCloseFiles) {
  Pid p = kernel_.Spawn(kNoPid, 100, "p");
  int fd1 = kernel_.OpenFileFor(p, "/tmp/a", "r");
  int fd2 = kernel_.OpenFileFor(p, "/tmp/b", "w");
  EXPECT_GE(fd1, 3);
  EXPECT_NE(fd1, fd2);
  EXPECT_EQ(kernel_.Find(p)->open_files.size(), 2u);
  EXPECT_TRUE(kernel_.CloseFileFor(p, fd1));
  EXPECT_EQ(kernel_.Find(p)->open_files.size(), 1u);
  EXPECT_FALSE(kernel_.CloseFileFor(p, fd1));
  EXPECT_EQ(kernel_.Find(p)->rusage.files_opened, 2u);
}

TEST_F(KernelTest, IpcAccounting) {
  Pid p = kernel_.Spawn(kNoPid, 100, "p");
  kernel_.RecordIpc(p, true, 100);
  kernel_.RecordIpc(p, false, 50);
  kernel_.RecordIpc(p, true, 10);
  EXPECT_EQ(kernel_.Find(p)->rusage.messages_sent, 2u);
  EXPECT_EQ(kernel_.Find(p)->rusage.messages_received, 1u);
}

// --- load average & cost scaling ---------------------------------------------------

TEST_F(KernelTest, LoadAverageConvergesToRunCount) {
  for (int i = 0; i < 3; ++i) kernel_.Spawn(kNoPid, 100, "spin");
  sim_.RunUntil(sim_.Now() + sim::Seconds(60));
  EXPECT_NEAR(kernel_.LoadAverage(), 3.0, 0.05);
}

TEST_F(KernelTest, LoadAverageDecaysAfterExit) {
  Pid a = kernel_.Spawn(kNoPid, 100, "spin");
  Pid b = kernel_.Spawn(kNoPid, 100, "spin");
  sim_.RunUntil(sim_.Now() + sim::Seconds(60));
  kernel_.PostSignal(a, Signal::kSigKill, 100);
  kernel_.PostSignal(b, Signal::kSigKill, 100);
  sim_.RunUntil(sim_.Now() + sim::Seconds(60));
  EXPECT_NEAR(kernel_.LoadAverage(), 0.0, 0.05);
}

TEST_F(KernelTest, ChargeScalesWithLoad) {
  sim::SimDuration idle_cost = kernel_.Charge(Kernel::kInitPid, sim::Millis(10));
  for (int i = 0; i < 4; ++i) kernel_.Spawn(kNoPid, 100, "spin");
  sim_.RunUntil(sim_.Now() + sim::Seconds(60));
  sim::SimDuration loaded_cost = kernel_.Charge(Kernel::kInitPid, sim::Millis(10));
  EXPECT_GT(loaded_cost, idle_cost);
}

TEST_F(KernelTest, CrashAllKillsEverything) {
  bool shut = false;
  kernel_.Spawn(kNoPid, 100, "a");
  kernel_.Spawn(kNoPid, 100, "b", std::make_unique<ShutdownBody>(&shut));
  kernel_.CrashAll();
  EXPECT_TRUE(shut);
  EXPECT_EQ(kernel_.live_count(), 0u);
  EXPECT_NEAR(kernel_.LoadAverage(), 0.0, 1.0);
}

// --- calibration ---------------------------------------------------------------------

// Table 1 of the paper, bucket midpoints (ms).
struct Table1Case {
  HostType type;
  double la;
  double expect_ms;
};

class Table1Fit : public ::testing::TestWithParam<Table1Case> {};

TEST_P(Table1Fit, PolynomialMatchesPaper) {
  const auto& c = GetParam();
  double got = static_cast<double>(KernelMsgDelay(c.type, c.la)) / 1000.0;
  EXPECT_NEAR(got, c.expect_ms, 0.05) << ToString(c.type) << " at la=" << c.la;
}

INSTANTIATE_TEST_SUITE_P(
    PaperValues, Table1Fit,
    ::testing::Values(Table1Case{HostType::kVax780, 0.5, 7.2},
                      Table1Case{HostType::kVax780, 1.5, 9.8},
                      Table1Case{HostType::kVax780, 2.5, 13.6},
                      Table1Case{HostType::kVax750, 0.5, 7.2},
                      Table1Case{HostType::kVax750, 1.5, 9.6},
                      Table1Case{HostType::kVax750, 2.5, 12.8},
                      Table1Case{HostType::kVax750, 3.5, 18.9},
                      Table1Case{HostType::kSun2, 0.5, 8.31},
                      Table1Case{HostType::kSun2, 1.5, 14.13},
                      Table1Case{HostType::kSun2, 2.5, 22.0},
                      Table1Case{HostType::kSun2, 3.5, 42.7}),
    // Stable names such as "Vax780_la0_5"; without a generator gtest
    // prints the parameter's raw bytes, struct padding included.
    [](const ::testing::TestParamInfo<Table1Case>& info) {
      const char* type = info.param.type == HostType::kVax780   ? "Vax780"
                         : info.param.type == HostType::kVax750 ? "Vax750"
                                                                : "Sun2";
      const int tenths = static_cast<int>(info.param.la * 10 + 0.5);
      return std::string(type) + "_la" + std::to_string(tenths / 10) + "_" +
             std::to_string(tenths % 10);
    });

TEST(Calibration, DelayMonotonicInLoad) {
  for (HostType t : {HostType::kVax780, HostType::kVax750, HostType::kSun2}) {
    sim::SimDuration prev = 0;
    for (double la = 0; la <= 4.0; la += 0.25) {
      sim::SimDuration d = KernelMsgDelay(t, la);
      EXPECT_GE(d, prev) << ToString(t) << " la=" << la;
      prev = d;
    }
  }
}

TEST(Calibration, SunDegradesFasterThanVax) {
  // The paper's SUN II loses much more to load than the VAXen.
  auto slope = [](HostType t) {
    return KernelMsgDelay(t, 3.5) - KernelMsgDelay(t, 0.5);
  };
  EXPECT_GT(slope(HostType::kSun2), slope(HostType::kVax750));
  EXPECT_GT(slope(HostType::kSun2), slope(HostType::kVax780));
}

// --- load generator --------------------------------------------------------------------

class LoadGenTest : public ::testing::Test {
 protected:
  LoadGenTest() : sim_(1), net_(sim_) {
    id_ = net_.AddHost("h");
    host_ = std::make_unique<Host>(sim_, net_, id_, HostType::kVax780, "h");
  }
  sim::Simulator sim_;
  net::Network net_;
  net::HostId id_;
  std::unique_ptr<Host> host_;
};

TEST_F(LoadGenTest, FullDutyPinsLoad) {
  LoadGenerator gen(*host_, 100, 2, 1.0);
  sim_.RunUntil(sim_.Now() + sim::Seconds(60));
  EXPECT_NEAR(host_->kernel().LoadAverage(), 2.0, 0.1);
  gen.Stop();
  sim_.RunUntil(sim_.Now() + sim::Seconds(60));
  EXPECT_NEAR(host_->kernel().LoadAverage(), 0.0, 0.1);
}

TEST_F(LoadGenTest, FractionalDutyHitsTarget) {
  LoadGenerator gen(*host_, 100, 3, 0.5);
  EXPECT_NEAR(gen.target_load(), 1.5, 1e-9);
  sim_.RunUntil(sim_.Now() + sim::Seconds(120));
  EXPECT_NEAR(host_->kernel().LoadAverage(), 1.5, 0.25);
}

TEST_F(LoadGenTest, SurvivesHostCrash) {
  LoadGenerator gen(*host_, 100, 2, 0.5);
  sim_.RunUntil(sim_.Now() + sim::Seconds(10));
  host_->Crash();
  sim_.RunUntil(sim_.Now() + sim::Seconds(10));  // toggles must not fire into dead kernel
  host_->Reboot();
  sim_.RunUntil(sim_.Now() + sim::Seconds(10));
  EXPECT_NEAR(host_->kernel().LoadAverage(), 0.0, 0.1);
  gen.Stop();  // must not touch the new kernel's pids
}

TEST_F(LoadGenTest, HostCrashRebootCycle) {
  EXPECT_TRUE(host_->up());
  host_->Crash();
  EXPECT_FALSE(host_->up());
  EXPECT_FALSE(net_.HostUp(id_));
  uint32_t gen_before = host_->generation();
  host_->Reboot();
  EXPECT_TRUE(host_->up());
  EXPECT_TRUE(net_.HostUp(id_));
  EXPECT_EQ(host_->generation(), gen_before + 1);
  // Fresh kernel: process table reset to init only.
  EXPECT_EQ(host_->kernel().live_count(), 1u);
}

}  // namespace
}  // namespace ppm::host
