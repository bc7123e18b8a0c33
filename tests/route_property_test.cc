// route_property_test.cc — the network's route table against a reference.
//
// Network caches one shortest-hop path per directed host pair and forgets
// them all whenever the topology or its fault state changes.  This test
// drives seeded random sequences of AddLink, SetLinkUp (down and up),
// SetHostUp (crash and reboot), Partition and Heal over twelve hosts and,
// after every step, compares the network with a breadth-first search
// written here from the same adjacency order:
//   * HopDistance for every ordered pair;
//   * the route a delivered datagram reports, for every reachable pair;
//   * after a link goes down, the circuits the network breaks are exactly
//     the pairs that lost reachability (a Partition, which downs and ups
//     links one at a time, must break at least those).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"

namespace ppm::net {
namespace {

constexpr HostId kHosts = 12;
constexpr Port kDgramPort = 9;
constexpr Port kStreamPort = 7;
constexpr int kSteps = 60;

// The topology as the test sees it, searched the way Network documents:
// neighbours in link-creation order, over up links and up hosts.
struct Reference {
  std::vector<bool> host_up = std::vector<bool>(kHosts, true);
  std::vector<std::vector<HostId>> adj = std::vector<std::vector<HostId>>(kHosts);
  std::map<std::pair<HostId, HostId>, bool> link_up;  // key (min, max)

  static std::pair<HostId, HostId> Key(HostId a, HostId b) {
    return {std::min(a, b), std::max(a, b)};
  }

  std::optional<std::vector<HostId>> Path(HostId from, HostId to) const {
    if (!host_up[from] || !host_up[to]) return std::nullopt;
    if (from == to) return std::vector<HostId>{from};
    std::vector<std::optional<HostId>> parent(kHosts);
    parent[from] = from;
    std::deque<HostId> frontier{from};
    while (!frontier.empty()) {
      HostId u = frontier.front();
      frontier.pop_front();
      for (HostId v : adj[u]) {
        if (parent[v] || !host_up[v] || !link_up.at(Key(u, v))) continue;
        parent[v] = u;
        if (v == to) {
          std::vector<HostId> path{to};
          for (HostId cur = to; cur != from; cur = *parent[cur]) path.push_back(*parent[cur]);
          std::reverse(path.begin(), path.end());
          return path;
        }
        frontier.push_back(v);
      }
    }
    return std::nullopt;
  }

  // Unordered pairs of distinct up hosts that can reach each other.
  std::set<std::pair<HostId, HostId>> ReachablePairs() const {
    std::set<std::pair<HostId, HostId>> out;
    for (HostId a = 0; a < kHosts; ++a)
      for (HostId b = a + 1; b < kHosts; ++b)
        if (Path(a, b)) out.insert({a, b});
    return out;
  }
};

class RouteTableProperty : public ::testing::TestWithParam<int> {
 protected:
  RouteTableProperty() : sim_(1), net_(sim_), rng_(GetParam()) {
    for (HostId h = 0; h < kHosts; ++h) {
      net_.AddHost("h" + std::to_string(h));
      Bind(h);
    }
  }

  void Bind(HostId h) {
    net_.BindDgram(h, kDgramPort, [this, h](SocketAddr from, const std::vector<uint8_t>&,
                                            const std::vector<HostId>& route) {
      routes_[{from.host, h}] = route;
    });
    net_.Listen(h, kStreamPort, [this](ConnId, SocketAddr) {
      ConnCallbacks cb;
      cb.on_close = [this](ConnId c, CloseReason) { OnClose(c); };
      return std::optional<ConnCallbacks>(cb);
    });
  }

  void OnClose(ConnId c) {
    auto it = circuit_pair_.find(c / 2);
    if (it != circuit_pair_.end()) broken_.insert(it->second);
  }

  HostId Pick() { return static_cast<HostId>(rng_() % kHosts); }

  void AddLink(HostId a, HostId b) {
    net_.AddLink(a, b);
    ref_.adj[a].push_back(b);
    ref_.adj[b].push_back(a);
    ref_.link_up[Reference::Key(a, b)] = true;
  }

  // Every HopDistance, then one datagram per reachable ordered pair.
  void CheckRoutes(const char* step) {
    for (HostId a = 0; a < kHosts; ++a) {
      for (HostId b = 0; b < kHosts; ++b) {
        auto want = ref_.Path(a, b);
        auto got = net_.HopDistance(a, b);
        ASSERT_EQ(got.has_value(), want.has_value()) << step << " " << a << "->" << b;
        if (want) {
          ASSERT_EQ(*got, want->size() - 1) << step << " " << a << "->" << b;
        }
      }
    }
    routes_.clear();
    for (HostId a = 0; a < kHosts; ++a)
      for (HostId b = 0; b < kHosts; ++b)
        if (a != b && ref_.Path(a, b)) net_.SendDgram(a, kDgramPort, SocketAddr{b, kDgramPort}, {});
    sim_.Run();
    for (HostId a = 0; a < kHosts; ++a) {
      for (HostId b = 0; b < kHosts; ++b) {
        if (a == b) continue;
        auto want = ref_.Path(a, b);
        auto it = routes_.find({a, b});
        ASSERT_EQ(it != routes_.end(), want.has_value()) << step << " " << a << "->" << b;
        if (want) {
          ASSERT_EQ(it->second, *want) << step << " " << a << "->" << b;
        }
      }
    }
  }

  // Replaces every circuit with a fresh one per reachable pair.
  void OpenCircuits() {
    for (auto& [id, pair] : circuit_pair_) net_.Close(id * 2);
    circuit_pair_.clear();
    for (const auto& [a, b] : ref_.ReachablePairs()) {
      net_.Connect(a, SocketAddr{b, kStreamPort}, ConnCallbacks{},
                   [this, a = a, b = b](std::optional<ConnId> c) {
                     if (c) circuit_pair_[*c / 2] = {a, b};
                   });
    }
    sim_.Run();
    broken_.clear();
    ASSERT_EQ(circuit_pair_.size(), ref_.ReachablePairs().size());
  }

  sim::Simulator sim_;
  Network net_;
  std::mt19937_64 rng_;
  Reference ref_;
  std::map<std::pair<HostId, HostId>, std::vector<HostId>> routes_;  // (from, to)
  std::map<ConnId, std::pair<HostId, HostId>> circuit_pair_;         // by conn id
  std::set<std::pair<HostId, HostId>> broken_;
};

TEST_P(RouteTableProperty, MatchesReferenceBfsUnderTopologyChurn) {
  // A sparse start, so later AddLink steps still have pairs to join.
  for (int i = 0; i < 14; ++i) {
    HostId a = Pick(), b = Pick();
    if (a != b && !ref_.link_up.count(Reference::Key(a, b))) AddLink(a, b);
  }
  ASSERT_NO_FATAL_FAILURE(CheckRoutes("start"));

  for (int step = 0; step < kSteps; ++step) {
    std::vector<std::pair<HostId, HostId>> links;
    for (const auto& [key, up] : ref_.link_up) links.push_back(key);
    const auto reachable_before = ref_.ReachablePairs();
    const char* what = "";
    bool link_down = false, partition = false;
    uint64_t choice = rng_() % 6;
    if (links.empty() && (choice == 1 || choice == 2)) choice = 0;
    switch (choice) {
      case 0: {
        what = "AddLink";
        HostId a = Pick(), b = Pick();
        if (a != b && !ref_.link_up.count(Reference::Key(a, b))) AddLink(a, b);
        break;
      }
      case 1: {
        what = "SetLinkUp(false)";
        auto [a, b] = links[rng_() % links.size()];
        ASSERT_NO_FATAL_FAILURE(OpenCircuits());
        net_.SetLinkUp(a, b, false);
        ref_.link_up[{a, b}] = false;
        link_down = true;
        break;
      }
      case 2: {
        what = "SetLinkUp(true)";
        auto [a, b] = links[rng_() % links.size()];
        net_.SetLinkUp(a, b, true);
        ref_.link_up[{a, b}] = true;
        break;
      }
      case 3: {
        HostId h = Pick();
        const bool up = !ref_.host_up[h];
        what = up ? "SetHostUp(true)" : "SetHostUp(false)";
        net_.SetHostUp(h, up);
        ref_.host_up[h] = up;
        if (up) Bind(h);  // a crash cleared the host's binds
        break;
      }
      case 4: {
        what = "Partition";
        std::vector<std::vector<HostId>> groups(2 + rng_() % 2);
        for (HostId h = 0; h < kHosts; ++h) groups[rng_() % groups.size()].push_back(h);
        std::vector<HostId> group_of(kHosts);
        for (size_t g = 0; g < groups.size(); ++g)
          for (HostId h : groups[g]) group_of[h] = static_cast<HostId>(g);
        ASSERT_NO_FATAL_FAILURE(OpenCircuits());
        net_.Partition(groups);
        for (auto& [key, up] : ref_.link_up) up = group_of[key.first] == group_of[key.second];
        partition = true;
        break;
      }
      case 5: {
        what = "Heal";
        net_.Heal();
        for (auto& [key, up] : ref_.link_up) up = true;
        break;
      }
    }
    SCOPED_TRACE(::testing::Message() << "seed " << GetParam() << " step " << step << " "
                                      << what);
    if (link_down || partition) {
      sim_.Run();  // break notices fire after the detection delay
      std::set<std::pair<HostId, HostId>> lost;
      const auto reachable_after = ref_.ReachablePairs();
      for (const auto& pair : reachable_before)
        if (!reachable_after.count(pair)) lost.insert(pair);
      if (link_down) {
        EXPECT_EQ(broken_, lost);
      } else {
        // Partition runs SetLinkUp one link at a time, so a sweep can
        // also break a pair an up later in the same call reconnects.
        for (const auto& pair : lost) {
          EXPECT_TRUE(broken_.count(pair)) << pair.first << "-" << pair.second;
        }
      }
    }
    ASSERT_NO_FATAL_FAILURE(CheckRoutes(what));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteTableProperty, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace ppm::net
