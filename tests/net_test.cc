// net_test.cc — the simulated internetwork: routing, circuits, faults.
#include <gtest/gtest.h>

#include "net/network.h"
#include "sim/simulator.h"

namespace ppm::net {
namespace {

class NetTest : public ::testing::Test {
 protected:
  NetTest() : sim_(1), net_(sim_) {}

  // Chain a—b—c—d.
  void BuildChain() {
    a_ = net_.AddHost("a");
    b_ = net_.AddHost("b");
    c_ = net_.AddHost("c");
    d_ = net_.AddHost("d");
    net_.AddLink(a_, b_);
    net_.AddLink(b_, c_);
    net_.AddLink(c_, d_);
  }

  sim::Simulator sim_;
  Network net_;
  HostId a_ = 0, b_ = 0, c_ = 0, d_ = 0;
};

TEST_F(NetTest, HopDistances) {
  BuildChain();
  EXPECT_EQ(net_.HopDistance(a_, a_), 0u);
  EXPECT_EQ(net_.HopDistance(a_, b_), 1u);
  EXPECT_EQ(net_.HopDistance(a_, c_), 2u);
  EXPECT_EQ(net_.HopDistance(a_, d_), 3u);
}

TEST_F(NetTest, UnreachableAfterLinkDown) {
  BuildChain();
  net_.SetLinkUp(b_, c_, false);
  EXPECT_FALSE(net_.HopDistance(a_, c_).has_value());
  EXPECT_EQ(net_.HopDistance(a_, b_), 1u);
  net_.SetLinkUp(b_, c_, true);
  EXPECT_EQ(net_.HopDistance(a_, c_), 2u);
}

TEST_F(NetTest, CrashedIntermediateBlocksRoute) {
  BuildChain();
  net_.SetHostUp(b_, false);
  EXPECT_FALSE(net_.HopDistance(a_, c_).has_value());
}

TEST_F(NetTest, FindHostByName) {
  BuildChain();
  EXPECT_EQ(net_.FindHost("c"), c_);
  EXPECT_FALSE(net_.FindHost("zebra").has_value());
}

TEST_F(NetTest, ConnectAcceptAndData) {
  BuildChain();
  std::vector<std::string> received;
  net_.Listen(b_, 99, [&](ConnId, SocketAddr) {
    ConnCallbacks cb;
    cb.on_data = [&received](ConnId, const std::vector<uint8_t>& d) {
      received.emplace_back(d.begin(), d.end());
    };
    return cb;
  });
  std::optional<ConnId> client;
  net_.Connect(a_, SocketAddr{b_, 99}, ConnCallbacks{},
               [&](std::optional<ConnId> c) { client = c; });
  sim_.Run();
  ASSERT_TRUE(client.has_value());
  EXPECT_TRUE(net_.ConnAlive(*client));
  net_.Send(*client, {'h', 'i'});
  net_.Send(*client, {'y', 'o'});
  sim_.Run();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0], "hi");
  EXPECT_EQ(received[1], "yo");  // FIFO preserved
}

TEST_F(NetTest, BidirectionalData) {
  BuildChain();
  std::string client_got, server_got;
  net_.Listen(b_, 99, [&](ConnId server_conn, SocketAddr) {
    ConnCallbacks cb;
    cb.on_data = [&, server_conn](ConnId, const std::vector<uint8_t>& d) {
      server_got.assign(d.begin(), d.end());
      net_.Send(server_conn, {'a', 'c', 'k'});
    };
    return cb;
  });
  ConnCallbacks ccb;
  ccb.on_data = [&](ConnId, const std::vector<uint8_t>& d) {
    client_got.assign(d.begin(), d.end());
  };
  net_.Connect(a_, SocketAddr{b_, 99}, ccb, [&](std::optional<ConnId> c) {
    ASSERT_TRUE(c.has_value());
    net_.Send(*c, {'p', 'i', 'n', 'g'});
  });
  sim_.Run();
  EXPECT_EQ(server_got, "ping");
  EXPECT_EQ(client_got, "ack");
}

TEST_F(NetTest, ConnectRefusedWithoutListener) {
  BuildChain();
  bool called = false;
  std::optional<ConnId> result = ConnId{1234};
  net_.Connect(a_, SocketAddr{b_, 7}, ConnCallbacks{}, [&](std::optional<ConnId> c) {
    called = true;
    result = c;
  });
  sim_.Run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(result.has_value());
}

TEST_F(NetTest, AcceptFnCanRefuse) {
  BuildChain();
  net_.Listen(b_, 99, [](ConnId, SocketAddr) { return std::optional<ConnCallbacks>(); });
  bool refused = false;
  net_.Connect(a_, SocketAddr{b_, 99}, ConnCallbacks{},
               [&](std::optional<ConnId> c) { refused = !c.has_value(); });
  sim_.Run();
  EXPECT_TRUE(refused);
}

TEST_F(NetTest, ConnectTimesOutToUnreachableHost) {
  BuildChain();
  net_.SetLinkUp(a_, b_, false);
  bool failed = false;
  sim::SimTime start = sim_.Now();
  net_.Connect(a_, SocketAddr{b_, 99}, ConnCallbacks{},
               [&](std::optional<ConnId> c) { failed = !c.has_value(); });
  sim_.Run();
  EXPECT_TRUE(failed);
  // The failure took the configured timeout, not forever and not zero.
  EXPECT_GE(sim_.Now() - start, static_cast<sim::SimTime>(net_.params().connect_timeout));
}

TEST_F(NetTest, PartitionBreaksCircuitsAfterDetectionDelay) {
  BuildChain();
  std::optional<CloseReason> client_reason, server_reason;
  net_.Listen(c_, 99, [&](ConnId, SocketAddr) {
    ConnCallbacks cb;
    cb.on_close = [&](ConnId, CloseReason r) { server_reason = r; };
    return cb;
  });
  std::optional<ConnId> client;
  ConnCallbacks ccb;
  ccb.on_close = [&](ConnId, CloseReason r) { client_reason = r; };
  net_.Connect(a_, SocketAddr{c_, 99}, ccb, [&](std::optional<ConnId> c) { client = c; });
  sim_.Run();
  ASSERT_TRUE(client.has_value());

  net_.Partition({{a_, b_}, {c_, d_}});
  sim_.Run();
  ASSERT_TRUE(client_reason.has_value());
  ASSERT_TRUE(server_reason.has_value());
  EXPECT_EQ(*client_reason, CloseReason::kNetBroken);
  EXPECT_EQ(*server_reason, CloseReason::kNetBroken);
}

TEST_F(NetTest, HostCrashBreaksCircuits) {
  BuildChain();
  std::optional<CloseReason> client_reason;
  net_.Listen(b_, 99, [&](ConnId, SocketAddr) { return ConnCallbacks{}; });
  std::optional<ConnId> client;
  ConnCallbacks ccb;
  ccb.on_close = [&](ConnId, CloseReason r) { client_reason = r; };
  net_.Connect(a_, SocketAddr{b_, 99}, ccb, [&](std::optional<ConnId> c) { client = c; });
  sim_.Run();
  ASSERT_TRUE(client.has_value());

  net_.SetHostUp(b_, false);
  sim_.Run();
  ASSERT_TRUE(client_reason.has_value());
  EXPECT_EQ(*client_reason, CloseReason::kPeerCrash);
  EXPECT_FALSE(net_.ConnAlive(*client));
}

TEST_F(NetTest, GracefulCloseNotifiesPeerAsPeerClose) {
  BuildChain();
  std::optional<CloseReason> server_reason;
  net_.Listen(b_, 99, [&](ConnId, SocketAddr) {
    ConnCallbacks cb;
    cb.on_close = [&](ConnId, CloseReason r) { server_reason = r; };
    return cb;
  });
  std::optional<ConnId> client;
  net_.Connect(a_, SocketAddr{b_, 99}, ConnCallbacks{},
               [&](std::optional<ConnId> c) { client = c; });
  sim_.Run();
  net_.Close(*client);
  sim_.Run();
  ASSERT_TRUE(server_reason.has_value());
  EXPECT_EQ(*server_reason, CloseReason::kPeerClose);
}

TEST_F(NetTest, AbortNotifiesPeerAsCrashAfterDelay) {
  BuildChain();
  std::optional<CloseReason> server_reason;
  net_.Listen(b_, 99, [&](ConnId, SocketAddr) {
    ConnCallbacks cb;
    cb.on_close = [&](ConnId, CloseReason r) { server_reason = r; };
    return cb;
  });
  std::optional<ConnId> client;
  net_.Connect(a_, SocketAddr{b_, 99}, ConnCallbacks{},
               [&](std::optional<ConnId> c) { client = c; });
  sim_.Run();
  sim::SimTime before = sim_.Now();
  net_.Abort(*client);
  sim_.Run();
  ASSERT_TRUE(server_reason.has_value());
  EXPECT_EQ(*server_reason, CloseReason::kPeerCrash);
  EXPECT_GE(sim_.Now() - before,
            static_cast<sim::SimTime>(net_.params().break_detection_delay));
}

TEST_F(NetTest, SendOnBrokenCircuitVanishesSilently) {
  BuildChain();
  int server_got = 0;
  net_.Listen(c_, 99, [&](ConnId, SocketAddr) {
    ConnCallbacks cb;
    cb.on_data = [&](ConnId, const std::vector<uint8_t>&) { ++server_got; };
    return cb;
  });
  std::optional<ConnId> client;
  net_.Connect(a_, SocketAddr{c_, 99}, ConnCallbacks{},
               [&](std::optional<ConnId> c) { client = c; });
  sim_.Run();
  net_.SetLinkUp(b_, c_, false);
  // Send before the break notice has been delivered: accepted, dropped.
  EXPECT_TRUE(net_.Send(*client, {'x'}));
  sim_.Run();
  EXPECT_EQ(server_got, 0);
}

TEST_F(NetTest, DatagramDelivery) {
  BuildChain();
  std::vector<HostId> route;
  std::string payload;
  net_.BindDgram(d_, 53, [&](SocketAddr, const std::vector<uint8_t>& data,
                             const std::vector<HostId>& r) {
    payload.assign(data.begin(), data.end());
    route = r;
  });
  net_.SendDgram(a_, 1000, SocketAddr{d_, 53}, {'q'});
  sim_.Run();
  EXPECT_EQ(payload, "q");
  // The datagram reports the route it travelled: a, b, c, d.
  EXPECT_EQ(route, (std::vector<HostId>{a_, b_, c_, d_}));
}

TEST_F(NetTest, DatagramToUnboundPortDropped) {
  BuildChain();
  net_.SendDgram(a_, 1000, SocketAddr{b_, 53}, {'q'});
  uint64_t dropped_before = net_.stats().frames_dropped;
  sim_.Run();
  EXPECT_GT(net_.stats().frames_dropped, dropped_before);
}

TEST_F(NetTest, LatencyScalesWithHops) {
  BuildChain();
  net_.BindDgram(b_, 53, [](SocketAddr, const std::vector<uint8_t>&,
                            const std::vector<HostId>&) {});
  sim::SimTime t1, t3;
  {
    net_.SendDgram(a_, 1000, SocketAddr{b_, 53}, {'x'});
    sim_.Run();
    t1 = sim_.Now();
  }
  net_.BindDgram(d_, 53, [](SocketAddr, const std::vector<uint8_t>&,
                            const std::vector<HostId>&) {});
  {
    net_.SendDgram(a_, 1000, SocketAddr{d_, 53}, {'x'});
    sim::SimTime start = sim_.Now();
    sim_.Run();
    t3 = sim_.Now() - start;
  }
  // Three hops take roughly 3x one hop.
  EXPECT_GT(t3, 2 * t1);
}

TEST_F(NetTest, LinkSerializesBackToBackFrames) {
  // Two large frames sent at the same instant must not arrive at the
  // same instant: the wire serializes them.
  BuildChain();
  std::vector<sim::SimTime> arrivals;
  net_.BindDgram(b_, 53, [&](SocketAddr, const std::vector<uint8_t>&,
                             const std::vector<HostId>&) {
    arrivals.push_back(sim_.Now());
  });
  std::vector<uint8_t> big(10000, 0xab);
  net_.SendDgram(a_, 1000, SocketAddr{b_, 53}, big);
  net_.SendDgram(a_, 1000, SocketAddr{b_, 53}, big);
  sim_.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_GT(arrivals[1], arrivals[0]);
}

TEST_F(NetTest, ConnsTouchingAndEndpoints) {
  BuildChain();
  net_.Listen(b_, 99, [](ConnId, SocketAddr) { return ConnCallbacks{}; });
  std::optional<ConnId> client;
  net_.Connect(a_, SocketAddr{b_, 99}, ConnCallbacks{},
               [&](std::optional<ConnId> c) { client = c; });
  sim_.Run();
  ASSERT_TRUE(client.has_value());
  auto eps = net_.ConnEndpoints(*client);
  ASSERT_TRUE(eps.has_value());
  EXPECT_EQ(eps->first.host, a_);
  EXPECT_EQ(eps->second.host, b_);
  EXPECT_EQ(eps->second.port, 99);
  EXPECT_EQ(net_.ConnsTouching(a_).size(), 1u);
  EXPECT_EQ(net_.ConnsTouching(b_).size(), 1u);
  EXPECT_EQ(net_.ConnsTouching(c_).size(), 0u);
}

TEST_F(NetTest, HealRestoresConnectivity) {
  BuildChain();
  net_.Partition({{a_}, {b_, c_, d_}});
  EXPECT_FALSE(net_.HopDistance(a_, b_).has_value());
  net_.Heal();
  EXPECT_EQ(net_.HopDistance(a_, b_), 1u);
}

TEST_F(NetTest, StatsCountTraffic) {
  BuildChain();
  net_.BindDgram(b_, 53, [](SocketAddr, const std::vector<uint8_t>&,
                            const std::vector<HostId>&) {});
  net_.SendDgram(a_, 1000, SocketAddr{b_, 53}, {'x'});
  sim_.Run();
  EXPECT_EQ(net_.stats().frames_sent, 1u);
  EXPECT_EQ(net_.stats().frames_delivered, 1u);
  EXPECT_GT(net_.stats().bytes_sent, 0u);
}

TEST_F(NetTest, SteadyStateSendsRunNoRouteSearch) {
  BuildChain();
  size_t received = 0;
  net_.Listen(b_, 99, [&](ConnId, SocketAddr) {
    ConnCallbacks cb;
    cb.on_data = [&received](ConnId, const std::vector<uint8_t>&) { ++received; };
    return cb;
  });
  std::optional<ConnId> client;
  net_.Connect(a_, SocketAddr{b_, 99}, ConnCallbacks{},
               [&](std::optional<ConnId> c) { client = c; });
  sim_.Run();
  ASSERT_TRUE(client.has_value());
  ASSERT_TRUE(net_.Send(*client, {'w'}));  // the circuit is warm after the handshake
  sim_.Run();

  const uint64_t warm = net_.stats().routes_computed;
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(net_.Send(*client, {'x'}));
  sim_.Run();
  EXPECT_EQ(received, 1001u);
  EXPECT_EQ(net_.stats().routes_computed, warm);

  // A fault elsewhere changes no a-b path, but the table forgets every
  // route: the circuit sweep searches a-b once, and later frames reuse it.
  net_.SetLinkUp(c_, d_, false);
  EXPECT_EQ(net_.stats().routes_computed, warm + 1);
  EXPECT_TRUE(net_.ConnAlive(*client));
  ASSERT_TRUE(net_.Send(*client, {'y'}));
  sim_.Run();
  EXPECT_EQ(received, 1002u);
  EXPECT_EQ(net_.stats().routes_computed, warm + 1);
}

}  // namespace
}  // namespace ppm::net
