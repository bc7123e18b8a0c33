// daemon_test.cc — inetd and pmd: the LPM creation path of Figure 2,
// authentication, and pmd crash behaviour (volatile vs stable registry).
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/wire.h"
#include "daemon/inetd.h"
#include "daemon/protocol.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace ppm::daemon {
namespace {

using core::Cluster;
using core::ClusterConfig;
using test::kTestUid;
using test::kTestUser;

// Sends one LpmRequest from `from` to `to`'s inetd; returns the response.
std::optional<LpmResponse> RequestLpm(Cluster& cluster, const std::string& from,
                                      const std::string& to, const std::string& user,
                                      const std::string& origin_user) {
  std::optional<LpmResponse> result;
  host::Host& src = cluster.host(from);
  net::HostId dst = *cluster.network().FindHost(to);
  net::ConnCallbacks cb;
  cb.on_data = [&](net::ConnId c, const std::vector<uint8_t>& bytes) {
    result = LpmResponse::Parse(bytes);
    cluster.network().Close(c);
  };
  cluster.network().Connect(src.net_id(), net::SocketAddr{dst, net::kInetdPort},
                            std::move(cb), [&](std::optional<net::ConnId> c) {
                              if (!c) return;
                              LpmRequest req;
                              req.user = user;
                              req.origin_host = from;
                              req.origin_user = origin_user;
                              cluster.network().Send(*c, req.Serialize());
                            });
  test::RunUntil(cluster, [&] { return result.has_value(); }, sim::Seconds(10));
  return result;
}

class DaemonTest : public ::testing::Test {
 protected:
  DaemonTest() {
    cluster_.AddHost("alpha");
    cluster_.AddHost("beta");
    cluster_.Link("alpha", "beta");
    test::InstallTestUser(cluster_);
    cluster_.RunFor(sim::Millis(10));  // let inetd bind
  }
  Cluster cluster_;
};

TEST_F(DaemonTest, InetdStartsAtBoot) {
  EXPECT_NE(cluster_.FindInetd("alpha"), nullptr);
  EXPECT_TRUE(cluster_.network().HasListener(cluster_.host("alpha").net_id(),
                                             net::kInetdPort));
}

TEST_F(DaemonTest, PmdCreatedOnFirstRequestOnly) {
  EXPECT_EQ(cluster_.FindPmd("alpha"), nullptr);  // on demand, not at boot
  auto resp = RequestLpm(cluster_, "alpha", "alpha", kTestUser, kTestUser);
  ASSERT_TRUE(resp.has_value());
  EXPECT_TRUE(resp->ok) << resp->error;
  EXPECT_NE(cluster_.FindPmd("alpha"), nullptr);
  EXPECT_EQ(cluster_.FindInetd("alpha")->stats().pmd_spawns, 1u);
  // Second request reuses pmd.
  RequestLpm(cluster_, "alpha", "alpha", kTestUser, kTestUser);
  EXPECT_EQ(cluster_.FindInetd("alpha")->stats().pmd_spawns, 1u);
}

TEST_F(DaemonTest, LpmCreatedAndReused) {
  auto first = RequestLpm(cluster_, "alpha", "alpha", kTestUser, kTestUser);
  ASSERT_TRUE(first && first->ok);
  EXPECT_TRUE(first->created);
  cluster_.RunFor(sim::Millis(100));
  auto second = RequestLpm(cluster_, "alpha", "alpha", kTestUser, kTestUser);
  ASSERT_TRUE(second && second->ok);
  EXPECT_FALSE(second->created);
  EXPECT_EQ(first->lpm_pid, second->lpm_pid);
  EXPECT_EQ(first->accept_addr, second->accept_addr);
  EXPECT_EQ(first->token, second->token);
}

TEST_F(DaemonTest, LpmProcessActuallyExists) {
  auto resp = RequestLpm(cluster_, "alpha", "alpha", kTestUser, kTestUser);
  ASSERT_TRUE(resp && resp->ok);
  cluster_.RunFor(sim::Millis(50));
  core::Lpm* lpm = cluster_.FindLpm("alpha", kTestUid);
  ASSERT_NE(lpm, nullptr);
  EXPECT_EQ(lpm->uid(), kTestUid);
  EXPECT_EQ(lpm->token(), resp->token);
  // Its accept socket is bound where pmd said.
  EXPECT_TRUE(cluster_.network().HasListener(resp->accept_addr.host,
                                             resp->accept_addr.port));
}

TEST_F(DaemonTest, UnknownUserRejected) {
  auto resp = RequestLpm(cluster_, "alpha", "alpha", "nobody", "nobody");
  ASSERT_TRUE(resp.has_value());
  EXPECT_FALSE(resp->ok);
  EXPECT_NE(resp->error.find("unknown user"), std::string::npos);
}

TEST_F(DaemonTest, RemoteRequestHonoursRhosts) {
  auto resp = RequestLpm(cluster_, "alpha", "beta", kTestUser, kTestUser);
  ASSERT_TRUE(resp.has_value());
  EXPECT_TRUE(resp->ok) << resp->error;
}

TEST_F(DaemonTest, RemoteRequestWithoutRhostsRejected) {
  cluster_.host("beta").fs().Remove(kTestUid, ".rhosts");
  auto resp = RequestLpm(cluster_, "alpha", "beta", kTestUser, kTestUser);
  ASSERT_TRUE(resp.has_value());
  EXPECT_FALSE(resp->ok);
  EXPECT_NE(resp->error.find(".rhosts"), std::string::npos);
}

TEST_F(DaemonTest, UserLevelMasqueradeRejected) {
  cluster_.AddUserEverywhere("mallory", 666);
  cluster_.TrustUserEverywhere("mallory", 666);
  // mallory asks beta for *leslie's* LPM.
  auto resp = RequestLpm(cluster_, "alpha", "beta", kTestUser, "mallory");
  ASSERT_TRUE(resp.has_value());
  EXPECT_FALSE(resp->ok);
  EXPECT_NE(resp->error.find("masquerade"), std::string::npos);
  Pmd* pmd = cluster_.FindPmd("beta");
  ASSERT_NE(pmd, nullptr);
  EXPECT_GT(pmd->stats().auth_failures, 0u);
}

TEST_F(DaemonTest, LocalRequestNeedsNoRhosts) {
  cluster_.host("alpha").fs().Remove(kTestUid, ".rhosts");
  auto resp = RequestLpm(cluster_, "alpha", "alpha", kTestUser, kTestUser);
  ASSERT_TRUE(resp && resp->ok);
}

TEST_F(DaemonTest, DeadLpmEntryIsReplaced) {
  auto first = RequestLpm(cluster_, "alpha", "alpha", kTestUser, kTestUser);
  ASSERT_TRUE(first && first->ok);
  cluster_.RunFor(sim::Millis(100));
  // Kill the LPM out from under pmd.
  cluster_.host("alpha").kernel().PostSignal(first->lpm_pid, host::Signal::kSigKill,
                                             host::kRootUid);
  cluster_.RunFor(sim::Millis(500));
  auto second = RequestLpm(cluster_, "alpha", "alpha", kTestUser, kTestUser);
  ASSERT_TRUE(second && second->ok);
  EXPECT_TRUE(second->created);
  EXPECT_NE(second->lpm_pid, first->lpm_pid);
}

TEST_F(DaemonTest, MalformedRequestClosedQuietly) {
  host::Host& src = cluster_.host("alpha");
  bool closed = false;
  net::ConnCallbacks cb;
  cb.on_close = [&](net::ConnId, net::CloseReason) { closed = true; };
  cluster_.network().Connect(src.net_id(),
                             net::SocketAddr{src.net_id(), net::kInetdPort}, std::move(cb),
                             [&](std::optional<net::ConnId> c) {
                               ASSERT_TRUE(c.has_value());
                               cluster_.network().Send(*c, {0xde, 0xad});
                             });
  test::RunUntil(cluster_, [&] { return closed; }, sim::Seconds(5));
  EXPECT_TRUE(closed);
  EXPECT_EQ(cluster_.FindInetd("alpha")->stats().bad_requests, 1u);
}

// --- pmd crash: the paper's stable-storage discussion ------------------------------

TEST(PmdCrashTest, VolatileRegistryCreatesDuplicateLpm) {
  // Opt out of the (now default) durable registry to reproduce the
  // paper's failure mode.
  ClusterConfig config;
  config.pmd.stable_storage = false;
  Cluster cluster(config);
  cluster.AddHost("alpha");
  test::InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  auto first = RequestLpm(cluster, "alpha", "alpha", kTestUser, kTestUser);
  ASSERT_TRUE(first && first->ok);
  cluster.RunFor(sim::Millis(100));

  // pmd-only crash (the LPM survives).
  Pmd* pmd = cluster.FindPmd("alpha");
  ASSERT_NE(pmd, nullptr);
  cluster.host("alpha").kernel().PostSignal(pmd->pid(), host::Signal::kSigKill,
                                            host::kRootUid);
  cluster.RunFor(sim::Millis(100));

  // "…then the process management mechanism does not operate correctly":
  // the fresh pmd knows nothing and forks a second LPM for the same user.
  auto second = RequestLpm(cluster, "alpha", "alpha", kTestUser, kTestUser);
  ASSERT_TRUE(second && second->ok);
  EXPECT_TRUE(second->created);
  EXPECT_NE(second->lpm_pid, first->lpm_pid);
}

TEST(PmdCrashTest, StableStorageSurvivesPmdCrash) {
  ClusterConfig config;
  config.pmd.stable_storage = true;
  Cluster cluster(config);
  cluster.AddHost("alpha");
  test::InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  auto first = RequestLpm(cluster, "alpha", "alpha", kTestUser, kTestUser);
  ASSERT_TRUE(first && first->ok);
  cluster.RunFor(sim::Millis(100));

  Pmd* pmd = cluster.FindPmd("alpha");
  ASSERT_NE(pmd, nullptr);
  EXPECT_GT(pmd->stats().stable_writes, 0u);
  cluster.host("alpha").kernel().PostSignal(pmd->pid(), host::Signal::kSigKill,
                                            host::kRootUid);
  cluster.RunFor(sim::Millis(100));

  // The reloaded registry still names the live LPM: no duplicate.
  auto second = RequestLpm(cluster, "alpha", "alpha", kTestUser, kTestUser);
  ASSERT_TRUE(second && second->ok);
  EXPECT_FALSE(second->created);
  EXPECT_EQ(second->lpm_pid, first->lpm_pid);
  EXPECT_EQ(second->token, first->token);
}

TEST(PmdCrashTest, DefaultConfigSurvivesPmdRestartWithoutDuplicateLpm) {
  // Regression for the durable-store PR: registrations are durable OUT
  // OF THE BOX, so a pmd restart plus an LPM re-registration request
  // must never mint a second LPM for the same user.
  Cluster cluster;  // all defaults
  cluster.AddHost("alpha");
  test::InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  auto first = RequestLpm(cluster, "alpha", "alpha", kTestUser, kTestUser);
  ASSERT_TRUE(first && first->ok);
  cluster.RunFor(sim::Millis(100));

  Pmd* pmd = cluster.FindPmd("alpha");
  ASSERT_NE(pmd, nullptr);
  cluster.host("alpha").kernel().PostSignal(pmd->pid(), host::Signal::kSigKill,
                                            host::kRootUid);
  cluster.RunFor(sim::Millis(100));

  auto second = RequestLpm(cluster, "alpha", "alpha", kTestUser, kTestUser);
  ASSERT_TRUE(second && second->ok);
  EXPECT_FALSE(second->created);
  EXPECT_EQ(second->lpm_pid, first->lpm_pid);
}

TEST(PmdCrashTest, StableStorageIgnoresStaleEntriesAfterHostCrash) {
  ClusterConfig config;
  config.pmd.stable_storage = true;
  Cluster cluster(config);
  cluster.AddHost("alpha");
  test::InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  auto first = RequestLpm(cluster, "alpha", "alpha", kTestUser, kTestUser);
  ASSERT_TRUE(first && first->ok);
  cluster.RunFor(sim::Millis(100));

  cluster.Crash("alpha");
  cluster.RunFor(sim::Seconds(1));
  cluster.Reboot("alpha");
  cluster.RunFor(sim::Millis(100));

  // Disk survived, but the pids in it are from the previous boot; pmd
  // must not resurrect them.
  auto second = RequestLpm(cluster, "alpha", "alpha", kTestUser, kTestUser);
  ASSERT_TRUE(second && second->ok);
  EXPECT_TRUE(second->created);
}

// --- per-opcode accounting of the daemon protocol --------------------------

// The codec's classifier repeats the daemon protocol's magics; they must
// be the first byte of what LpmRequest/LpmResponse emit.
TEST(DaemonWireAccountingTest, ClassifierNamesBothDaemonFrames) {
  const std::vector<uint8_t> req = LpmRequest{}.Serialize();
  const std::vector<uint8_t> resp = LpmResponse{}.Serialize();
  ASSERT_FALSE(req.empty());
  ASSERT_FALSE(resp.empty());
  EXPECT_EQ(req[0], core::kLpmRequestMagic);
  EXPECT_EQ(resp[0], core::kLpmResponseMagic);
  EXPECT_STREQ(core::ClassifyWireFrame(req), "LpmRequest");
  EXPECT_STREQ(core::ClassifyWireFrame(resp), "LpmResponse");
}

TEST(DaemonWireAccountingTest, ToolSessionLeavesNoUnknownFrames) {
  obs::Registry& reg = obs::Registry::Instance();
  reg.Reset();
  Cluster cluster;
  cluster.AddHost("alpha");
  cluster.AddHost("beta");
  cluster.Link("alpha", "beta");
  test::InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  // The tool's session goes through alpha's inetd and pmd; the remote
  // create makes alpha's LPM open a sibling through beta's.
  tools::PpmClient* client = test::ConnectTool(cluster, "alpha");
  ASSERT_NE(client, nullptr);
  std::optional<core::CreateResp> created;
  client->CreateProcess("beta", "worker", {},
                        [&](const core::CreateResp& r) { created = r; });
  ASSERT_TRUE(test::RunUntil(cluster, [&] { return created.has_value(); }));
  EXPECT_TRUE(created->ok) << created->error;
  cluster.RunFor(sim::Seconds(1));

  uint64_t op_frames = 0, op_bytes = 0;
  reg.ForEachCounter([&](const std::string& name, const obs::Counter& c) {
    if (name.rfind("net.op.", 0) != 0) return;
    if (name.size() > 7 && name.rfind(".frames") == name.size() - 7) {
      op_frames += c.value();
    } else if (name.rfind(".bytes") == name.size() - 6) {
      op_bytes += c.value();
    }
  });
  auto value = [&](const char* name) {
    const obs::Counter* c = reg.FindCounter(name);
    return c ? c->value() : 0;
  };
  EXPECT_GE(value("net.op.LpmRequest.frames"), 2u);  // the tool's and the sibling's
  EXPECT_GE(value("net.op.LpmResponse.frames"), 2u);
  EXPECT_EQ(value("net.op.unknown.frames"), 0u);
  EXPECT_EQ(op_frames, value("net.frames.sent"));
  EXPECT_EQ(op_bytes, value("net.bytes.sent"));
}

}  // namespace
}  // namespace ppm::daemon
