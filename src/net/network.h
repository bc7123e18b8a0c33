// network.h — the simulated internetwork.
//
// Models the environment of the paper: multiple Ethernets joined by
// gateway hosts, so some host pairs are one hop apart and some two or
// more (the independent variable of Tables 2 and 3).  The model is
// store-and-forward at the host granularity:
//
//   * a Link connects two hosts with a propagation latency and a
//     per-byte transmission cost; a directed link serializes frames
//     (a frame occupies the wire for its transmission time, so back to
//     back frames queue);
//   * routes are shortest-hop paths, computed once per directed host
//     pair and shared by every frame sent between them until the
//     topology or fault state next changes; each delivered datagram
//     carries the route it travelled, which the PPM layer records for
//     source-destination routing of replies (paper Section 4);
//   * faults: links can be taken down (partitions) and hosts can crash;
//     frames in flight toward a dead hop are dropped silently, exactly
//     like datagrams on a partitioned 1986 internet.
//
// Two transports are offered, mirroring the paper's discussion:
//   * reliable stream connections ("virtual circuits", the transport the
//     PPM actually uses): explicit connect/accept, FIFO data delivery,
//     and broken-circuit notification after a detection delay when the
//     peer crashes or the route partitions;
//   * datagrams (the "would scale much better" alternative evaluated in
//     bench_ablate_transport): fire-and-forget, silently droppable.
//
// The Network knows nothing about processes or users; the host layer
// bridges frames to simulated processes and charges local CPU costs.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/address.h"
#include "sim/simulator.h"

namespace ppm::obs {
class Counter;
}  // namespace ppm::obs

namespace ppm::net {

// Why a circuit went away.  kLocalClose is the graceful case; the rest
// feed the PPM's failure detection.
enum class CloseReason : uint8_t {
  kLocalClose,   // this endpoint closed
  kPeerClose,    // peer closed gracefully
  kPeerCrash,    // peer host or peer process died
  kNetBroken,    // route partitioned / link down
};

const char* ToString(CloseReason r);

using ConnId = uint64_t;
constexpr ConnId kInvalidConn = 0;

// Callbacks one endpoint registers for a circuit.  Both are optional.
struct ConnCallbacks {
  std::function<void(ConnId, const std::vector<uint8_t>&)> on_data;
  std::function<void(ConnId, CloseReason)> on_close;
};

// Accept decision: return callbacks to accept, nullopt to refuse.
using AcceptFn = std::function<std::optional<ConnCallbacks>(ConnId, SocketAddr peer)>;

// Datagram receive: payload plus the route the frame travelled
// (route.front() == sender host, route.back() == this host).
using DgramFn =
    std::function<void(SocketAddr from, const std::vector<uint8_t>&, const std::vector<HostId>& route)>;

using ConnectResultFn = std::function<void(std::optional<ConnId>)>;

struct LinkParams {
  sim::SimDuration latency = sim::Micros(500);   // one-way propagation
  sim::SimDuration per_byte = sim::Micros(1);    // transmission cost per byte
};

struct NetworkParams {
  // How long after a crash/partition the surviving endpoint of a circuit
  // learns it is broken (models TCP RST / retransmission give-up).
  sim::SimDuration break_detection_delay = sim::Millis(150);
  // Connect attempts that get no answer fail after this long.
  sim::SimDuration connect_timeout = sim::Millis(500);
  // Fixed cost of the connect handshake on top of 1 RTT (socket setup).
  sim::SimDuration handshake_cpu = sim::Millis(2);
};

struct NetStats {
  uint64_t frames_sent = 0;
  uint64_t frames_delivered = 0;
  uint64_t frames_dropped = 0;
  uint64_t bytes_sent = 0;
  uint64_t conns_opened = 0;
  uint64_t conns_broken = 0;
  uint64_t connects_timed_out = 0;  // handshakes that never completed
  uint64_t half_open_reaped = 0;    // accepted-but-unestablished endpoints torn down
  // Chaos accounting (LinkFaultProfile injections and their fallout).
  uint64_t faults_dropped = 0;     // frames eaten by a drop fault
  uint64_t faults_duplicated = 0;  // extra copies injected on the wire
  uint64_t faults_reordered = 0;   // frames held back by a reorder delay
  uint64_t faults_corrupted = 0;   // frames with a payload byte flipped
  uint64_t dup_frames_discarded = 0;  // stale circuit frames suppressed
  // Route-table misses: shortest-path searches actually run.  Frames
  // between a pair whose route is cached do not move it.
  uint64_t routes_computed = 0;
};

// Adversarial per-link behaviour for chaos testing.  Probabilities are
// per frame per traversal of the link; every roll draws from the
// simulator's single seeded RNG, so a fault sequence replays from the
// seed alone.  Corruption flips one payload byte, which the PPM wire
// checksum detects on parse; control frames (empty payload) pass
// through unchanged.
struct LinkFaultProfile {
  double drop = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double corrupt = 0.0;
  sim::SimDuration reorder_delay_max = sim::Millis(50);

  bool active() const {
    return drop > 0 || duplicate > 0 || reorder > 0 || corrupt > 0;
  }
};

class Network {
 public:
  Network(sim::Simulator& simulator, NetworkParams params = {});

  // --- topology -----------------------------------------------------
  HostId AddHost(const std::string& name);
  void AddLink(HostId a, HostId b, LinkParams params = {});

  const std::string& HostName(HostId h) const;
  std::optional<HostId> FindHost(const std::string& name) const;
  size_t host_count() const { return hosts_.size(); }

  // Shortest-hop distance considering current fault state; nullopt if
  // unreachable.
  std::optional<size_t> HopDistance(HostId a, HostId b) const;

  // --- fault injection ----------------------------------------------
  void SetLinkUp(HostId a, HostId b, bool up);
  void SetHostUp(HostId h, bool up);  // down = crash: breaks circuits, clears binds
  bool HostUp(HostId h) const;

  // Partitions the network into the given groups by downing every link
  // that crosses a group boundary.  Links inside a group are restored.
  void Partition(const std::vector<std::vector<HostId>>& groups);
  // Restores every link.
  void Heal();

  // --- adversarial link behaviour (chaos testing) ---------------------
  void SetLinkFaults(HostId a, HostId b, LinkFaultProfile profile);
  void SetAllLinkFaults(LinkFaultProfile profile);  // every existing link
  void ClearLinkFaults();

  // --- stream circuits ----------------------------------------------
  void Listen(HostId h, Port p, AcceptFn accept);
  void Unlisten(HostId h, Port p);
  bool HasListener(HostId h, Port p) const;

  // Opens a circuit from `from` (an ephemeral port is assigned) to `to`.
  // `done` fires with the ConnId once established, or nullopt on refusal
  // or timeout.  Callbacks are installed on success.
  void Connect(HostId from, SocketAddr to, ConnCallbacks cb, ConnectResultFn done);

  // Sends bytes on an established circuit.  Returns false if the circuit
  // is already locally closed/unknown.  Delivery is FIFO per circuit; if
  // the route is broken the data vanishes and break detection fires.
  bool Send(ConnId c, std::vector<uint8_t> data);

  // Gracefully closes this endpoint; peer gets on_close(kPeerClose).
  void Close(ConnId c);

  // Abrupt teardown, as when the owning process dies: this endpoint
  // closes silently (no callback) and the peer learns of the break only
  // after the detection delay, with kPeerCrash.
  void Abort(ConnId c);

  // Introspection for tests and the fig3/fig4 exhibits.
  bool ConnAlive(ConnId c) const;
  std::optional<std::pair<SocketAddr, SocketAddr>> ConnEndpoints(ConnId c) const;
  std::vector<ConnId> ConnsTouching(HostId h) const;
  // Socket-leak checks for the chaos invariants: how many stream
  // listeners / datagram binds currently sit on `h` (a crashed host must
  // have none).
  size_t ListenerCount(HostId h) const;
  size_t DgramBindCount(HostId h) const;
  // Circuits touching `h` that are neither established nor still inside
  // the handshake window (no pending connect).  Any such entry at a
  // quiescent point is a half-open leak: a connect that timed out or was
  // refused but left state behind.  Must be zero once the dust settles.
  size_t HalfOpenConnCount(HostId h) const;

  // --- datagrams ------------------------------------------------------
  void BindDgram(HostId h, Port p, DgramFn fn);
  void UnbindDgram(HostId h, Port p);
  // One-shot unreliable send; silently dropped when unreachable.
  void SendDgram(HostId from, Port from_port, SocketAddr to, std::vector<uint8_t> data);

  const NetStats& stats() const { return stats_; }
  sim::Simulator& simulator() { return sim_; }
  const NetworkParams& params() const { return params_; }

  // Per-opcode wire accounting.  Every frame put on the wire increments
  // "net.op.<class>.frames" / "net.op.<class>.bytes" alongside the
  // net.frames.sent / net.bytes.sent totals, so the totals decompose
  // exactly by opcode.  Control frames and datagrams classify here by
  // frame kind ("ctl.syn", "dgram", ...); data payloads are opaque to
  // this layer, so their class comes from the installed classifier
  // (core::Cluster installs core::ClassifyWireFrame) — "data" when none
  // is installed.  The returned pointer must be stable (a literal or a
  // name-table entry): it keys the counter cache.
  using PayloadClassFn = const char* (*)(const uint8_t* payload, size_t len);
  void set_payload_classifier(PayloadClassFn fn) { classify_ = fn; }

 private:
  struct HostRec {
    std::string name;
    bool up = true;
  };
  struct LinkRec {
    LinkParams params;
    bool up = true;
    LinkFaultProfile faults;
    // Directed wire-busy horizon for serialization, indexed [a<b ? 0:1].
    sim::SimTime busy_until[2] = {0, 0};
    // Per-link registry instruments ("net.link.<a>-<b>.*"), resolved
    // once at AddLink so the per-frame path is a bare increment.
    obs::Counter* frames_counter = nullptr;
    obs::Counter* bytes_counter = nullptr;
    obs::Counter* drops_counter = nullptr;
  };
  enum class FrameKind : uint8_t { kSyn, kSynAck, kData, kFin, kRst, kDgram };
  // A planned path, shared by the route table and every frame that
  // follows it; nullptr means unreachable.
  using Path = std::shared_ptr<const std::vector<HostId>>;
  struct Frame {
    FrameKind kind;
    SocketAddr src, dst;
    ConnId conn = kInvalidConn;
    uint64_t seq = 0;  // per-circuit sequence for FIFO reassembly
    std::vector<uint8_t> payload;
    size_t hop_index = 0;  // index of the host holding the frame in `path`
    Path path;             // planned at send time
  };
  struct Endpoint {
    SocketAddr addr;
    ConnCallbacks cb;
    bool open = false;
    uint64_t next_send_seq = 0;
    uint64_t next_recv_seq = 0;
    std::map<uint64_t, Frame> reorder;  // frames arrived ahead of order
  };
  struct Conn {
    ConnId id = kInvalidConn;
    Endpoint a, b;           // a = initiator
    bool established = false;
    bool dead = false;
    bool syn_seen = false;   // guards the accept path against duplicated SYNs
  };
  struct PendingConnect {
    ConnId conn;
    ConnectResultFn done;
    sim::EventId timeout_ev;
  };

  uint64_t LinkKey(HostId a, HostId b) const;
  // Opcode class of a frame (see set_payload_classifier), and the
  // "sent" side of the per-opcode accounting.  `wire_bytes` is 0 for a
  // chaos-duplicated copy, which (like the totals) counts the extra
  // frame but no extra bytes.
  const char* FrameClass(const Frame& f) const;
  void CountOpFrame(const Frame& f, size_t wire_bytes);
  LinkRec* FindLink(HostId a, HostId b);
  const LinkRec* FindLinkConst(HostId a, HostId b) const;
  // The shortest-hop path from `from` to `to` under the current fault
  // state, served from the route table.  A miss runs ComputeRoute and
  // keeps the result (unreachable included) until InvalidateRoutes.
  Path Route(HostId from, HostId to) const;
  Path ComputeRoute(HostId from, HostId to) const;
  // Forgets every cached route.  Called by each mutator of the topology
  // or its fault state, and by nothing else: AddHost, AddLink,
  // SetLinkUp, SetHostUp and Heal.
  void InvalidateRoutes() { routes_.clear(); }
  void SendFrame(Frame f);
  void ForwardFrame(Frame f);
  // Puts one frame on the u->v wire, applying the link's corruption and
  // reordering faults to this copy.
  void TransmitOnLink(LinkRec& link, HostId u, HostId v, Frame f);
  void DeliverFrame(Frame f);
  void DeliverData(Conn& conn, Endpoint& self, Frame f);
  Endpoint* EndpointAt(Conn& conn, HostId h, Port p);
  void BreakConn(Conn& conn, HostId detected_by, CloseReason reason);
  // `reap_after` erases the conns_ entry once the notice has fired —
  // used for never-established circuits, which nothing else will reap.
  void ScheduleBreakNotice(ConnId id, bool notify_a, bool notify_b, CloseReason reason,
                           bool reap_after = false);
  Port NextEphemeral(HostId h);

  sim::Simulator& sim_;
  NetworkParams params_;
  std::vector<HostRec> hosts_;
  std::unordered_map<uint64_t, LinkRec> links_;
  std::unordered_map<HostId, std::vector<HostId>> adj_;
  std::unordered_map<SocketAddr, AcceptFn, SocketAddrHash> listeners_;
  std::unordered_map<SocketAddr, DgramFn, SocketAddrHash> dgram_binds_;
  std::unordered_map<ConnId, Conn> conns_;
  std::unordered_map<ConnId, PendingConnect> pending_connects_;
  std::unordered_map<HostId, Port> next_ephemeral_;
  // Route table keyed by the directed pair (from << 32 | to): the BFS
  // tie-break can pick different hosts in the two directions.
  mutable std::unordered_map<uint64_t, Path> routes_;
  ConnId next_conn_id_ = 1;
  mutable NetStats stats_;  // mutable for routes_computed, counted in Route()
  PayloadClassFn classify_ = nullptr;
};

}  // namespace ppm::net
