#include "net/network.h"

#include <algorithm>
#include <deque>

#include "obs/metrics.h"
#include "util/log.h"
#include "util/panic.h"

namespace ppm::net {

namespace {
// Fixed per-frame header cost charged on the wire (addresses, sequence
// numbers, checksums) — roughly a 1986 TCP/IP header.
constexpr size_t kFrameHeaderBytes = 40;
constexpr Port kEphemeralBase = 32768;

struct NetCounters {
  obs::Counter* frames_sent;
  obs::Counter* frames_delivered;
  obs::Counter* frames_dropped;
  obs::Counter* bytes_sent;
  obs::Counter* conns_opened;
  obs::Counter* conns_broken;
  obs::Counter* dup_suppressed;
  obs::Counter* connect_timeouts;
  obs::Counter* half_open_reaped;
};

NetCounters& Counters() {
  static NetCounters c = {
      obs::Registry::Instance().GetCounter("net.frames.sent"),
      obs::Registry::Instance().GetCounter("net.frames.delivered"),
      obs::Registry::Instance().GetCounter("net.frames.dropped"),
      obs::Registry::Instance().GetCounter("net.bytes.sent"),
      obs::Registry::Instance().GetCounter("net.conns.opened"),
      obs::Registry::Instance().GetCounter("net.conns.broken"),
      obs::Registry::Instance().GetCounter("net.frames.dup-suppressed"),
      obs::Registry::Instance().GetCounter("net.conns.connect-timeouts"),
      obs::Registry::Instance().GetCounter("net.conns.half-open-reaped"),
  };
  return c;
}

// Chaos-injection counters, one per LinkFaultProfile knob.
struct FaultCounterSet {
  obs::Counter* dropped;
  obs::Counter* duplicated;
  obs::Counter* reordered;
  obs::Counter* corrupted;
};

FaultCounterSet& FaultCounters() {
  static FaultCounterSet c = {
      obs::Registry::Instance().GetCounter("net.faults.dropped"),
      obs::Registry::Instance().GetCounter("net.faults.duplicated"),
      obs::Registry::Instance().GetCounter("net.faults.reordered"),
      obs::Registry::Instance().GetCounter("net.faults.corrupted"),
  };
  return c;
}

// Per-opcode accounting: "net.op.<class>.{frames,bytes}".  The cache is
// keyed by the stable class pointer the classifier returns, so the
// per-frame cost after the first occurrence of a class is one pointer
// hash.  Two distinct pointers with equal text resolve to the same
// registry counters, so the sums stay exact either way.
struct OpCounterSet {
  obs::Counter* frames;
  obs::Counter* bytes;
};

OpCounterSet& OpCounters(const char* cls) {
  static std::unordered_map<const char*, OpCounterSet> cache;
  auto [it, inserted] = cache.try_emplace(cls);
  if (inserted) {
    std::string base = "net.op.";
    base += cls;
    it->second.frames = obs::Registry::Instance().GetCounter(base + ".frames");
    it->second.bytes = obs::Registry::Instance().GetCounter(base + ".bytes");
  }
  return it->second;
}

// One counter per circuit close reason, "net.conn.close.<reason>".
obs::Counter* CloseCounter(CloseReason r) {
  static obs::Counter* c[4] = {
      obs::Registry::Instance().GetCounter("net.conn.close.local-close"),
      obs::Registry::Instance().GetCounter("net.conn.close.peer-close"),
      obs::Registry::Instance().GetCounter("net.conn.close.peer-crash"),
      obs::Registry::Instance().GetCounter("net.conn.close.net-broken"),
  };
  return c[static_cast<size_t>(r)];
}
}  // namespace

const char* ToString(CloseReason r) {
  switch (r) {
    case CloseReason::kLocalClose: return "local-close";
    case CloseReason::kPeerClose: return "peer-close";
    case CloseReason::kPeerCrash: return "peer-crash";
    case CloseReason::kNetBroken: return "net-broken";
  }
  return "?";
}

Network::Network(sim::Simulator& simulator, NetworkParams params)
    : sim_(simulator), params_(params) {}

HostId Network::AddHost(const std::string& name) {
  HostId id = static_cast<HostId>(hosts_.size());
  hosts_.push_back(HostRec{name, true});
  InvalidateRoutes();
  adj_[id];  // ensure entry
  next_ephemeral_[id] = kEphemeralBase;
  return id;
}

void Network::AddLink(HostId a, HostId b, LinkParams params) {
  PPM_CHECK(a < hosts_.size() && b < hosts_.size() && a != b);
  uint64_t key = LinkKey(a, b);
  PPM_CHECK_MSG(!links_.count(key), "duplicate link");
  links_[key] = LinkRec{params, true, {0, 0}};
  LinkRec& link = links_[key];
  const std::string edge =
      hosts_[std::min(a, b)].name + "-" + hosts_[std::max(a, b)].name;
  obs::Registry& reg = obs::Registry::Instance();
  link.frames_counter = reg.GetCounter("net.link." + edge + ".frames");
  link.bytes_counter = reg.GetCounter("net.link." + edge + ".bytes");
  link.drops_counter = reg.GetCounter("net.link." + edge + ".drops");
  adj_[a].push_back(b);
  adj_[b].push_back(a);
  InvalidateRoutes();
}

const std::string& Network::HostName(HostId h) const {
  PPM_CHECK(h < hosts_.size());
  return hosts_[h].name;
}

std::optional<HostId> Network::FindHost(const std::string& name) const {
  for (HostId i = 0; i < hosts_.size(); ++i)
    if (hosts_[i].name == name) return i;
  return std::nullopt;
}

uint64_t Network::LinkKey(HostId a, HostId b) const {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

Network::LinkRec* Network::FindLink(HostId a, HostId b) {
  auto it = links_.find(LinkKey(a, b));
  return it == links_.end() ? nullptr : &it->second;
}

const Network::LinkRec* Network::FindLinkConst(HostId a, HostId b) const {
  auto it = links_.find(LinkKey(a, b));
  return it == links_.end() ? nullptr : &it->second;
}

Network::Path Network::Route(HostId from, HostId to) const {
  if (from >= hosts_.size() || to >= hosts_.size()) return nullptr;
  auto [it, inserted] = routes_.try_emplace((static_cast<uint64_t>(from) << 32) | to);
  if (inserted) {
    ++stats_.routes_computed;
    it->second = ComputeRoute(from, to);
  }
  return it->second;
}

Network::Path Network::ComputeRoute(HostId from, HostId to) const {
  if (!hosts_[from].up || !hosts_[to].up) return nullptr;
  if (from == to) return std::make_shared<const std::vector<HostId>>(1, from);
  // BFS over up links and up intermediate hosts.  Neighbor order is the
  // link-creation order, so routes are deterministic.
  std::unordered_map<HostId, HostId> parent;
  std::deque<HostId> frontier{from};
  parent[from] = from;
  while (!frontier.empty()) {
    HostId u = frontier.front();
    frontier.pop_front();
    auto it = adj_.find(u);
    if (it == adj_.end()) continue;
    for (HostId v : it->second) {
      if (parent.count(v) || !hosts_[v].up) continue;
      const LinkRec* link = FindLinkConst(u, v);
      if (!link || !link->up) continue;
      parent[v] = u;
      if (v == to) {
        std::vector<HostId> path{to};
        for (HostId cur = to; cur != from; cur = parent[cur]) path.push_back(parent[cur]);
        std::reverse(path.begin(), path.end());
        return std::make_shared<const std::vector<HostId>>(std::move(path));
      }
      frontier.push_back(v);
    }
  }
  return nullptr;
}

std::optional<size_t> Network::HopDistance(HostId a, HostId b) const {
  auto path = Route(a, b);
  if (!path) return std::nullopt;
  return path->size() - 1;
}

// --- fault injection --------------------------------------------------

void Network::SetLinkUp(HostId a, HostId b, bool up) {
  LinkRec* link = FindLink(a, b);
  PPM_CHECK_MSG(link != nullptr, "no such link");
  if (link->up == up) return;
  link->up = up;
  InvalidateRoutes();
  if (up) return;
  // Break every established circuit whose endpoints are no longer
  // mutually reachable (one search per distinct pair: the route table
  // answers the rest).
  for (auto& [id, conn] : conns_) {
    if (conn.dead || !conn.established) continue;
    if (!Route(conn.a.addr.host, conn.b.addr.host)) {
      BreakConn(conn, kInvalidHost, CloseReason::kNetBroken);
    }
  }
}

void Network::SetHostUp(HostId h, bool up) {
  PPM_CHECK(h < hosts_.size());
  if (hosts_[h].up == up) return;
  hosts_[h].up = up;
  InvalidateRoutes();
  if (up) return;
  // Crash: every bind on the host vanishes; circuits touching it break.
  for (auto it = listeners_.begin(); it != listeners_.end();) {
    it = (it->first.host == h) ? listeners_.erase(it) : std::next(it);
  }
  for (auto it = dgram_binds_.begin(); it != dgram_binds_.end();) {
    it = (it->first.host == h) ? dgram_binds_.erase(it) : std::next(it);
  }
  for (auto it = pending_connects_.begin(); it != pending_connects_.end();) {
    auto conn_it = conns_.find(it->first);
    bool mine = conn_it != conns_.end() && conn_it->second.a.addr.host == h;
    if (mine) {
      sim_.Cancel(it->second.timeout_ev);
      ConnId id = it->first;
      it = pending_connects_.erase(it);
      Conn& conn = conn_it->second;
      conn.dead = true;
      if (conn.b.open) {
        // The acceptor already opened its endpoint for this handshake;
        // marking the conn dead here would make the BreakConn sweep
        // below skip it and leave the acceptor half-open forever.
        ScheduleBreakNotice(id, /*notify_a=*/false, /*notify_b=*/true,
                            CloseReason::kPeerCrash, /*reap_after=*/true);
      } else {
        conns_.erase(conn_it);
      }
    } else {
      ++it;
    }
  }
  for (auto& [id, conn] : conns_) {
    if (conn.dead) continue;
    if (conn.a.addr.host != h && conn.b.addr.host != h) continue;
    BreakConn(conn, h, CloseReason::kPeerCrash);
  }
}

bool Network::HostUp(HostId h) const {
  PPM_CHECK(h < hosts_.size());
  return hosts_[h].up;
}

void Network::Partition(const std::vector<std::vector<HostId>>& groups) {
  std::unordered_map<HostId, size_t> group_of;
  for (size_t g = 0; g < groups.size(); ++g)
    for (HostId h : groups[g]) group_of[h] = g;
  for (auto& [key, link] : links_) {
    HostId a = static_cast<HostId>(key >> 32);
    HostId b = static_cast<HostId>(key & 0xffffffff);
    auto ia = group_of.find(a);
    auto ib = group_of.find(b);
    bool same = ia != group_of.end() && ib != group_of.end() && ia->second == ib->second;
    if (link.up && !same) {
      SetLinkUp(a, b, false);
    } else if (!link.up && same) {
      SetLinkUp(a, b, true);
    }
  }
}

void Network::Heal() {
  // Flips links directly rather than through SetLinkUp, so it forgets
  // the routes itself.
  bool changed = false;
  for (auto& [key, link] : links_) {
    if (!link.up) {
      link.up = true;
      changed = true;
    }
  }
  if (changed) InvalidateRoutes();
}

void Network::SetLinkFaults(HostId a, HostId b, LinkFaultProfile profile) {
  LinkRec* link = FindLink(a, b);
  PPM_CHECK_MSG(link != nullptr, "no such link");
  link->faults = profile;
}

void Network::SetAllLinkFaults(LinkFaultProfile profile) {
  for (auto& [key, link] : links_) link.faults = profile;
}

void Network::ClearLinkFaults() { SetAllLinkFaults(LinkFaultProfile{}); }

void Network::BreakConn(Conn& conn, HostId detected_by, CloseReason reason) {
  if (conn.dead) return;
  conn.dead = true;
  ++stats_.conns_broken;
  Counters().conns_broken->Inc();
  CloseCounter(reason)->Inc();
  // The endpoint on a crashed host dies silently (its process is gone);
  // every other open endpoint learns of the break after the detection
  // delay, modelling TCP's retransmission give-up.
  bool notify_a = conn.a.open && conn.a.addr.host != detected_by;
  bool notify_b = conn.b.open && conn.b.addr.host != detected_by;
  if (conn.a.addr.host == detected_by) conn.a.open = false;
  if (conn.b.addr.host == detected_by) conn.b.open = false;
  ScheduleBreakNotice(conn.id, notify_a, notify_b, reason);
}

void Network::ScheduleBreakNotice(ConnId id, bool notify_a, bool notify_b,
                                  CloseReason reason, bool reap_after) {
  sim_.ScheduleIn(params_.break_detection_delay,
                  [this, id, notify_a, notify_b, reason, reap_after] {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    Conn& conn = it->second;
    if (notify_a && conn.a.open) {
      conn.a.open = false;
      if (auto fn = conn.a.cb.on_close) fn(id * 2, reason);
    }
    if (notify_b && conn.b.open) {
      conn.b.open = false;
      if (auto fn = conn.b.cb.on_close) fn(id * 2 + 1, reason);
    }
    if (reap_after) {
      // Re-find: an on_close callback may have opened new circuits and
      // rehashed the map (which invalidates iterators, not references).
      ++stats_.half_open_reaped;
      Counters().half_open_reaped->Inc();
      conns_.erase(id);
    }
  }, "conn-break-notice");
}

// --- circuits ---------------------------------------------------------

void Network::Listen(HostId h, Port p, AcceptFn accept) {
  PPM_CHECK(h < hosts_.size());
  PPM_CHECK_MSG(hosts_[h].up, "listen on crashed host");
  SocketAddr addr{h, p};
  PPM_CHECK_MSG(!listeners_.count(addr), "port already bound: " + ToString(addr));
  listeners_[addr] = std::move(accept);
}

void Network::Unlisten(HostId h, Port p) { listeners_.erase(SocketAddr{h, p}); }

bool Network::HasListener(HostId h, Port p) const {
  return listeners_.count(SocketAddr{h, p}) > 0;
}

Port Network::NextEphemeral(HostId h) {
  Port p = next_ephemeral_[h]++;
  if (next_ephemeral_[h] == 0) next_ephemeral_[h] = kEphemeralBase;  // wrap
  return p;
}

void Network::Connect(HostId from, SocketAddr to, ConnCallbacks cb, ConnectResultFn done) {
  PPM_CHECK(from < hosts_.size());
  if (!hosts_[from].up) return;  // dead caller: drop silently
  ConnId id = next_conn_id_++;
  Conn conn;
  conn.id = id;
  conn.a.addr = SocketAddr{from, NextEphemeral(from)};
  conn.a.cb = std::move(cb);
  conn.b.addr = to;
  conns_[id] = std::move(conn);

  PendingConnect pending;
  pending.conn = id;
  pending.done = std::move(done);
  pending.timeout_ev = sim_.ScheduleIn(params_.connect_timeout, [this, id] {
    auto pit = pending_connects_.find(id);
    if (pit == pending_connects_.end()) return;
    ConnectResultFn done_fn = std::move(pit->second.done);
    pending_connects_.erase(pit);
    ++stats_.connects_timed_out;
    Counters().connect_timeouts->Inc();
    auto cit = conns_.find(id);
    if (cit != conns_.end()) {
      Conn& conn = cit->second;
      conn.dead = true;
      if (conn.b.open) {
        // The acceptor answered the SYN but the SYN-ACK never made it
        // back (dropped, or the route broke mid-handshake).  Its
        // endpoint is half-open: notify it after the usual detection
        // window, then reap the entry — nothing else ever will.
        ScheduleBreakNotice(id, /*notify_a=*/false, /*notify_b=*/true,
                            CloseReason::kNetBroken, /*reap_after=*/true);
      } else {
        // The SYN never reached a listener: no peer state to unwind.
        conns_.erase(cit);
      }
    }
    if (done_fn) done_fn(std::nullopt);
  }, "connect-timeout");
  pending_connects_[id] = std::move(pending);

  Frame syn;
  syn.kind = FrameKind::kSyn;
  syn.src = conns_[id].a.addr;
  syn.dst = to;
  syn.conn = id;
  SendFrame(std::move(syn));
}

bool Network::Send(ConnId handle, std::vector<uint8_t> data) {
  auto it = conns_.find(handle / 2);
  if (it == conns_.end()) return false;
  Conn& conn = it->second;
  Endpoint& self = (handle % 2 == 0) ? conn.a : conn.b;
  Endpoint& peer = (handle % 2 == 0) ? conn.b : conn.a;
  if (!self.open || !conn.established) return false;
  // A broken-but-undetected circuit accepts writes; the bytes vanish in
  // the network, exactly as with TCP before the RST arrives.
  Frame f;
  f.kind = FrameKind::kData;
  f.src = self.addr;
  f.dst = peer.addr;
  f.conn = conn.id;
  f.seq = self.next_send_seq++;
  f.payload = std::move(data);
  SendFrame(std::move(f));
  return true;
}

void Network::Close(ConnId handle) {
  auto it = conns_.find(handle / 2);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  Endpoint& self = (handle % 2 == 0) ? conn.a : conn.b;
  Endpoint& peer = (handle % 2 == 0) ? conn.b : conn.a;
  if (!self.open) return;
  self.open = false;
  CloseCounter(CloseReason::kLocalClose)->Inc();
  if (conn.established && !conn.dead) {
    Frame fin;
    fin.kind = FrameKind::kFin;
    fin.src = self.addr;
    fin.dst = peer.addr;
    fin.conn = conn.id;
    SendFrame(std::move(fin));
  }
  if (!peer.open) conn.dead = true;
}

void Network::Abort(ConnId handle) {
  auto it = conns_.find(handle / 2);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  Endpoint& self = (handle % 2 == 0) ? conn.a : conn.b;
  Endpoint& peer = (handle % 2 == 0) ? conn.b : conn.a;
  if (!self.open) return;
  self.open = false;
  // Deliberately leave self.cb in place: this very call may be running
  // inside one of those callbacks, and the open flag already guarantees
  // it will never be invoked again.
  if (peer.open && conn.established && !conn.dead) {
    ++stats_.conns_broken;
    Counters().conns_broken->Inc();
    CloseCounter(CloseReason::kPeerCrash)->Inc();
    ScheduleBreakNotice(conn.id, /*notify_a=*/(&peer == &conn.a),
                        /*notify_b=*/(&peer == &conn.b), CloseReason::kPeerCrash);
  }
  conn.dead = true;
}

bool Network::ConnAlive(ConnId handle) const {
  auto it = conns_.find(handle / 2);
  if (it == conns_.end()) return false;
  const Endpoint& self = (handle % 2 == 0) ? it->second.a : it->second.b;
  return self.open && it->second.established;
}

std::optional<std::pair<SocketAddr, SocketAddr>> Network::ConnEndpoints(ConnId handle) const {
  auto it = conns_.find(handle / 2);
  if (it == conns_.end()) return std::nullopt;
  const Conn& conn = it->second;
  if (handle % 2 == 0) return std::make_pair(conn.a.addr, conn.b.addr);
  return std::make_pair(conn.b.addr, conn.a.addr);
}

std::vector<ConnId> Network::ConnsTouching(HostId h) const {
  std::vector<ConnId> out;
  for (const auto& [id, conn] : conns_) {
    if (conn.dead || !conn.established) continue;
    if (conn.a.addr.host == h && conn.a.open) out.push_back(id * 2);
    if (conn.b.addr.host == h && conn.b.open) out.push_back(id * 2 + 1);
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t Network::ListenerCount(HostId h) const {
  size_t n = 0;
  for (const auto& [addr, fn] : listeners_) n += (addr.host == h);
  return n;
}

size_t Network::DgramBindCount(HostId h) const {
  size_t n = 0;
  for (const auto& [addr, fn] : dgram_binds_) n += (addr.host == h);
  return n;
}

size_t Network::HalfOpenConnCount(HostId h) const {
  // Established entries linger after close by design (ids are never
  // reused); what must NOT linger is a handshake that concluded without
  // establishing — those are reaped on timeout/refusal/crash.  A
  // not-yet-expired pending connect is a legitimate transient.
  size_t n = 0;
  for (const auto& [id, conn] : conns_) {
    if (conn.established) continue;
    if (pending_connects_.count(id)) continue;
    if (conn.a.addr.host == h || conn.b.addr.host == h) ++n;
  }
  return n;
}

// --- datagrams ----------------------------------------------------------

void Network::BindDgram(HostId h, Port p, DgramFn fn) {
  SocketAddr addr{h, p};
  PPM_CHECK_MSG(!dgram_binds_.count(addr), "dgram port already bound");
  dgram_binds_[addr] = std::move(fn);
}

void Network::UnbindDgram(HostId h, Port p) { dgram_binds_.erase(SocketAddr{h, p}); }

void Network::SendDgram(HostId from, Port from_port, SocketAddr to,
                        std::vector<uint8_t> data) {
  if (from >= hosts_.size() || !hosts_[from].up) return;
  Frame f;
  f.kind = FrameKind::kDgram;
  f.src = SocketAddr{from, from_port};
  f.dst = to;
  f.payload = std::move(data);
  SendFrame(std::move(f));
}

// --- frame plumbing -----------------------------------------------------

const char* Network::FrameClass(const Frame& f) const {
  switch (f.kind) {
    case FrameKind::kSyn: return "ctl.syn";
    case FrameKind::kSynAck: return "ctl.synack";
    case FrameKind::kFin: return "ctl.fin";
    case FrameKind::kRst: return "ctl.rst";
    case FrameKind::kDgram: return "dgram";
    case FrameKind::kData:
      return classify_ ? classify_(f.payload.data(), f.payload.size()) : "data";
  }
  return "data";
}

void Network::CountOpFrame(const Frame& f, size_t wire_bytes) {
  OpCounterSet& c = OpCounters(FrameClass(f));
  c.frames->Inc();
  if (wire_bytes > 0) c.bytes->Inc(wire_bytes);
}

void Network::SendFrame(Frame f) {
  ++stats_.frames_sent;
  stats_.bytes_sent += f.payload.size() + kFrameHeaderBytes;
  Counters().frames_sent->Inc();
  Counters().bytes_sent->Inc(f.payload.size() + kFrameHeaderBytes);
  CountOpFrame(f, f.payload.size() + kFrameHeaderBytes);
  f.path = Route(f.src.host, f.dst.host);
  if (!f.path) {
    ++stats_.frames_dropped;
    Counters().frames_dropped->Inc();
    return;
  }
  f.hop_index = 0;
  if (f.path->size() == 1) {
    // Local delivery: no wire, but keep it asynchronous so the event
    // order matches the remote case.
    Frame frame = std::move(f);
    sim_.ScheduleIn(0, [this, frame = std::move(frame)]() mutable {
      DeliverFrame(std::move(frame));
    }, "frame-local");
    return;
  }
  ForwardFrame(std::move(f));
}

void Network::ForwardFrame(Frame f) {
  HostId u = (*f.path)[f.hop_index];
  HostId v = (*f.path)[f.hop_index + 1];
  if (!hosts_[u].up) {
    ++stats_.frames_dropped;
    Counters().frames_dropped->Inc();
    return;
  }
  LinkRec* link = FindLink(u, v);
  if (!link || !link->up) {
    ++stats_.frames_dropped;
    Counters().frames_dropped->Inc();
    if (link) link->drops_counter->Inc();
    return;
  }
  if (link->faults.active()) {
    sim::Rng& rng = sim_.rng();
    if (link->faults.drop > 0 && rng.Chance(link->faults.drop)) {
      ++stats_.frames_dropped;
      ++stats_.faults_dropped;
      Counters().frames_dropped->Inc();
      FaultCounters().dropped->Inc();
      link->drops_counter->Inc();
      // A dropped circuit frame is unrecoverable (there is no
      // retransmission), so the circuit's FIFO contract is already
      // broken: the receiver would wedge on the sequence gap forever,
      // silently if the stream then goes idle.  Declare the break now,
      // after the usual detection window, so both ends learn and can
      // re-establish — the analogue of TCP giving up on a link this bad.
      if (f.kind == FrameKind::kData || f.kind == FrameKind::kFin) {
        const ConnId id = f.conn;
        sim_.ScheduleIn(params_.break_detection_delay, [this, id] {
          auto it = conns_.find(id);
          if (it == conns_.end() || it->second.dead) return;
          BreakConn(it->second, kInvalidHost, CloseReason::kNetBroken);
        }, "circuit-drop-break");
      }
      return;
    }
    if (link->faults.duplicate > 0 && rng.Chance(link->faults.duplicate)) {
      // The duplicate is a real extra frame: it occupies the wire and is
      // counted as sent, so `sent >= delivered + dropped` still holds.
      // Mirrored in the per-opcode accounting (frame but no bytes, like
      // the totals) so net.op.* keeps summing to net.frames.sent.
      ++stats_.frames_sent;
      ++stats_.faults_duplicated;
      Counters().frames_sent->Inc();
      FaultCounters().duplicated->Inc();
      CountOpFrame(f, 0);
      TransmitOnLink(*link, u, v, f);
    }
  }
  TransmitOnLink(*link, u, v, std::move(f));
}

void Network::TransmitOnLink(LinkRec& link, HostId u, HostId v, Frame f) {
  sim::SimDuration extra = 0;
  if (link.faults.active()) {
    sim::Rng& rng = sim_.rng();
    if (link.faults.corrupt > 0 && !f.payload.empty() && rng.Chance(link.faults.corrupt)) {
      size_t idx = static_cast<size_t>(rng.Below(f.payload.size()));
      f.payload[idx] ^= static_cast<uint8_t>(rng.Range(1, 255));
      ++stats_.faults_corrupted;
      FaultCounters().corrupted->Inc();
    }
    if (link.faults.reorder > 0 && link.faults.reorder_delay_max > 0 &&
        rng.Chance(link.faults.reorder)) {
      // The extra delay does not occupy the wire, so a later frame can
      // overtake this one.
      extra = static_cast<sim::SimDuration>(rng.Range(1, link.faults.reorder_delay_max));
      ++stats_.faults_reordered;
      FaultCounters().reordered->Inc();
    }
  }
  link.frames_counter->Inc();
  link.bytes_counter->Inc(f.payload.size() + kFrameHeaderBytes);
  int dir = (u < v) ? 0 : 1;
  sim::SimTime now = sim_.Now();
  sim::SimDuration tx =
      static_cast<sim::SimDuration>(f.payload.size() + kFrameHeaderBytes) * link.params.per_byte;
  sim::SimTime start = std::max(now, link.busy_until[dir]);
  sim::SimTime arrival = start + static_cast<sim::SimTime>(tx + link.params.latency + extra);
  link.busy_until[dir] = start + static_cast<sim::SimTime>(tx);

  Frame frame = std::move(f);
  frame.hop_index += 1;
  sim_.ScheduleAt(arrival, [this, frame = std::move(frame)]() mutable {
    HostId here = (*frame.path)[frame.hop_index];
    if (!hosts_[here].up) {
      ++stats_.frames_dropped;
      Counters().frames_dropped->Inc();
      return;
    }
    if (frame.hop_index + 1 == frame.path->size()) {
      DeliverFrame(std::move(frame));
    } else {
      ForwardFrame(std::move(frame));
    }
  }, "frame-hop");
}

Network::Endpoint* Network::EndpointAt(Conn& conn, HostId h, Port p) {
  if (conn.a.addr.host == h && conn.a.addr.port == p) return &conn.a;
  if (conn.b.addr.host == h && conn.b.addr.port == p) return &conn.b;
  return nullptr;
}

void Network::DeliverData(Conn& conn, Endpoint& self, Frame f) {
  // Duplicate suppression: chaos duplication (and only it) can replay a
  // sequence number that was already delivered or is already queued.
  // Discarding here keeps the circuit's exactly-once FIFO contract.
  if (f.seq < self.next_recv_seq) {
    ++stats_.frames_dropped;
    ++stats_.dup_frames_discarded;
    Counters().frames_dropped->Inc();
    Counters().dup_suppressed->Inc();
    return;
  }
  // FIFO reassembly: per-link serialization normally preserves order,
  // but a reorder fault or a route change mid-stream (after a heal) can
  // reorder frames.
  if (f.seq != self.next_recv_seq) {
    // A gap can be a reordered frame still in flight — or a frame a drop
    // fault ate, which will never arrive: the circuit would wedge
    // silently, since there is no retransmission.  Give the gap one
    // break-detection window to fill; if the receive cursor has not
    // advanced past it by then, declare the circuit broken so both ends
    // learn (TCP's retransmission give-up).
    const bool is_a = (&self == &conn.a);
    const ConnId id = conn.id;
    const uint64_t stalled_at = self.next_recv_seq;
    sim_.ScheduleIn(params_.break_detection_delay,
                    [this, id, is_a, stalled_at] {
                      auto cit = conns_.find(id);
                      if (cit == conns_.end() || cit->second.dead) return;
                      Endpoint& ep = is_a ? cit->second.a : cit->second.b;
                      if (!ep.open || ep.next_recv_seq > stalled_at) return;
                      // Neither endpoint crashed: notify both sides.
                      BreakConn(cit->second, kInvalidHost,
                                CloseReason::kNetBroken);
                    },
                    "circuit-gap-stall");
    if (!self.reorder.emplace(f.seq, std::move(f)).second) {
      ++stats_.frames_dropped;
      ++stats_.dup_frames_discarded;
      Counters().frames_dropped->Inc();
      Counters().dup_suppressed->Inc();
    }
    return;
  }
  ConnId handle = (&self == &conn.a) ? conn.id * 2 : conn.id * 2 + 1;
  ++stats_.frames_delivered;
  Counters().frames_delivered->Inc();
  if (auto fn = self.cb.on_data) fn(handle, f.payload);
  self.next_recv_seq++;
  while (true) {
    auto it = self.reorder.find(self.next_recv_seq);
    if (it == self.reorder.end()) break;
    Frame next = std::move(it->second);
    self.reorder.erase(it);
    ++stats_.frames_delivered;
    Counters().frames_delivered->Inc();
    if (auto fn = self.cb.on_data) fn(handle, next.payload);
    self.next_recv_seq++;
  }
}

void Network::DeliverFrame(Frame f) {
  switch (f.kind) {
    case FrameKind::kDgram: {
      auto it = dgram_binds_.find(f.dst);
      if (it == dgram_binds_.end()) {
        ++stats_.frames_dropped;
        Counters().frames_dropped->Inc();
        return;
      }
      ++stats_.frames_delivered;
      Counters().frames_delivered->Inc();
      // Copy before invoking: the handler may unbind itself (one-shot
      // reply sockets do), which would destroy the closure mid-call.
      // The frame has walked its whole planned path, so the path is the
      // route it travelled.
      DgramFn fn = it->second;
      fn(f.src, f.payload, *f.path);
      return;
    }
    case FrameKind::kSyn: {
      auto cit = conns_.find(f.conn);
      if (cit == conns_.end() || cit->second.dead) return;
      Conn& conn = cit->second;
      // A duplicated SYN must not re-run the accept path (it would
      // clobber the acceptor state or answer a refused connect twice).
      if (conn.syn_seen) return;
      conn.syn_seen = true;
      auto lit = listeners_.find(f.dst);
      bool accepted = false;
      if (lit != listeners_.end()) {
        AcceptFn accept_fn = lit->second;  // may Unlisten itself
        auto cb = accept_fn(conn.id * 2 + 1, f.src);
        if (cb) {
          conn.b.cb = std::move(*cb);
          conn.b.open = true;
          accepted = true;
        }
      }
      Frame reply;
      reply.kind = accepted ? FrameKind::kSynAck : FrameKind::kRst;
      reply.src = f.dst;
      reply.dst = f.src;
      reply.conn = f.conn;
      // The accepting host pays a fixed socket-setup CPU cost before the
      // SYN-ACK leaves (paper: authentication happens at channel setup).
      ConnId id = f.conn;
      sim_.ScheduleIn(params_.handshake_cpu, [this, reply = std::move(reply), id]() mutable {
        auto it2 = conns_.find(id);
        if (it2 == conns_.end()) return;
        SendFrame(std::move(reply));
      }, "syn-reply");
      return;
    }
    case FrameKind::kSynAck: {
      auto pit = pending_connects_.find(f.conn);
      auto cit = conns_.find(f.conn);
      if (pit == pending_connects_.end() || cit == conns_.end()) {
        // A duplicated SYN-ACK for an already-established circuit is
        // ignored; answering with a RST would kill the live circuit.
        if (cit != conns_.end() && cit->second.established) return;
        // Initiator timed out already; tell the acceptor to clean up.
        Frame rst;
        rst.kind = FrameKind::kRst;
        rst.src = f.dst;
        rst.dst = f.src;
        rst.conn = f.conn;
        SendFrame(std::move(rst));
        return;
      }
      sim_.Cancel(pit->second.timeout_ev);
      ConnectResultFn done_fn = std::move(pit->second.done);
      pending_connects_.erase(pit);
      Conn& conn = cit->second;
      conn.established = true;
      conn.a.open = true;
      ++stats_.conns_opened;
      Counters().conns_opened->Inc();
      if (done_fn) done_fn(conn.id * 2);
      return;
    }
    case FrameKind::kRst: {
      auto pit = pending_connects_.find(f.conn);
      if (pit != pending_connects_.end()) {
        sim_.Cancel(pit->second.timeout_ev);
        ConnectResultFn done_fn = std::move(pit->second.done);
        pending_connects_.erase(pit);
        auto cit = conns_.find(f.conn);
        if (cit != conns_.end()) {
          cit->second.dead = true;
          // Refused connect: the acceptor never opened (a RST means the
          // accept path declined), so the entry can go right away.
          if (!cit->second.b.open) conns_.erase(cit);
        }
        if (done_fn) done_fn(std::nullopt);
        return;
      }
      auto cit = conns_.find(f.conn);
      if (cit == conns_.end()) return;
      Conn& conn = cit->second;
      Endpoint* self = EndpointAt(conn, f.dst.host, f.dst.port);
      if (!self || !self->open) return;
      self->open = false;
      conn.dead = true;
      CloseCounter(CloseReason::kNetBroken)->Inc();
      ConnId handle = (self == &conn.a) ? conn.id * 2 : conn.id * 2 + 1;
      if (auto fn = self->cb.on_close) fn(handle, CloseReason::kNetBroken);
      return;
    }
    case FrameKind::kData: {
      auto cit = conns_.find(f.conn);
      Endpoint* self = nullptr;
      if (cit != conns_.end()) {
        self = EndpointAt(cit->second, f.dst.host, f.dst.port);
      }
      if (!self || !self->open) {
        // Data for a circuit this endpoint no longer holds — typically
        // the FIN that closed it was lost on a faulty link.  Answer RST
        // so the sender tears down its half instead of feeding a black
        // hole forever (TCP's data-after-close behaviour).
        Frame rst;
        rst.kind = FrameKind::kRst;
        rst.src = f.dst;
        rst.dst = f.src;
        rst.conn = f.conn;
        SendFrame(std::move(rst));
        return;
      }
      DeliverData(cit->second, *self, std::move(f));
      return;
    }
    case FrameKind::kFin: {
      auto cit = conns_.find(f.conn);
      if (cit == conns_.end()) return;
      Conn& conn = cit->second;
      Endpoint* self = EndpointAt(conn, f.dst.host, f.dst.port);
      if (!self || !self->open) return;
      self->open = false;
      conn.dead = true;
      CloseCounter(CloseReason::kPeerClose)->Inc();
      ConnId handle = (self == &conn.a) ? conn.id * 2 : conn.id * 2 + 1;
      if (auto fn = self->cb.on_close) fn(handle, CloseReason::kPeerClose);
      return;
    }
  }
}

}  // namespace ppm::net
