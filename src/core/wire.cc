#include "core/wire.h"

#include <cstring>

#include "obs/metrics.h"
#include "obs/prof.h"
#include "util/panic.h"

namespace ppm::core {

namespace {

// Indexed by Msg variant tag; kStatMsgTag frames map to indices 29/30,
// kBusyMsgTag to 31, and the kGroupMsgTag family to 32 onward.
const char* const kMsgTypeNames[] = {
    "HelloSibling", "HelloTool", "HelloAck", "HelloReject", "CreateReq", "CreateResp",
    "SignalReq", "SignalResp", "SnapshotReq", "SnapshotResp", "RusageReq", "RusageResp",
    "AdoptReq", "AdoptResp", "TraceReq", "TraceResp", "HistoryReq", "HistoryResp",
    "TriggerReq", "TriggerResp", "BecomeCcs", "CcsChanged", "Probe", "ProbeAck",
    "FilesReq", "FilesResp", "MigrateReq", "MigrateResp", "RegisterChild",
    "StatReq", "StatResp", "BusyResp",
    "GroupSpawnReq", "GroupSpawnResp", "GroupPartReq", "GroupPartResp",
    "GroupUndoReq", "GroupAck", "GroupExitNotify", "GroupAddNotify",
    "GroupSignalReq", "GroupSignalResp", "GroupJoinReq", "GroupJoinResp",
    "BarrierEnterReq", "BarrierEnterResp", "BarrierJoinReq", "BarrierReleaseReq",
    "EnvarSetReq", "EnvarSetResp", "EnvarGetReq", "EnvarGetResp",
    "EnvarUpdate", "EnvarSync", "EnvarWatchReq", "EnvarWatchResp",
    "StatSubscribe", "StatDelta", "StatUnsubscribe"};
constexpr size_t kPlainTagCount = 29;  // tags 0..28 encode under the variant index

// The sub-byte arithmetic of the 0xF8 family depends on the group
// messages sitting contiguously in the variant, and the 0xF6
// subscription sub-ops on the stream family sitting right after them.
static_assert(std::is_same_v<std::variant_alternative_t<kGroupIndexBase, Msg>, GroupSpawnReq>);
static_assert(std::is_same_v<std::variant_alternative_t<kStatStreamIndexBase, Msg>, StatSubscribe>);
static_assert(std::is_same_v<std::variant_alternative_t<kStatStreamIndexBase + 1, Msg>, StatDelta>);
static_assert(std::is_same_v<std::variant_alternative_t<kStatStreamIndexBase + 2, Msg>, StatUnsubscribe>);
static_assert(std::variant_size_v<Msg> ==
              kGroupIndexBase + kGroupSubCount + kStatStreamSubCount);
static_assert(sizeof(kMsgTypeNames) / sizeof(kMsgTypeNames[0]) == std::variant_size_v<Msg>);

// Codec-level accounting: how many frames pass through encode/decode and
// how much of each frame is escape-header overhead (the 0xF4 checksum
// and 0xF5 trace headers ppmprof's wire table decomposes).
struct WireMetrics {
  obs::Counter* frames_encoded;
  obs::Counter* frames_decoded;
  obs::Counter* hdr_checksum_bytes;
  obs::Counter* hdr_trace_bytes;
  obs::Counter* hdr_deadline_bytes;
  obs::Counter* kevent_encoded;
  obs::Counter* kevent_decoded;
};

WireMetrics& Metrics() {
  static WireMetrics m = {
      obs::Registry::Instance().GetCounter("wire.frames.encoded"),
      obs::Registry::Instance().GetCounter("wire.frames.decoded"),
      obs::Registry::Instance().GetCounter("wire.hdr.checksum.bytes"),
      obs::Registry::Instance().GetCounter("wire.hdr.trace.bytes"),
      obs::Registry::Instance().GetCounter("wire.hdr.deadline.bytes"),
      obs::Registry::Instance().GetCounter("wire.kevent.encoded"),
      obs::Registry::Instance().GetCounter("wire.kevent.decoded"),
  };
  return m;
}

}  // namespace

std::string ToString(const GPid& g) {
  return "<" + g.host + "," + std::to_string(g.pid) + ">";
}

// --- kernel event messages -------------------------------------------------

// Fixed layout of the 112-byte record.  The format is the historical
// field-by-field little-endian encoding (U8 kind, I32 pid, I32 other,
// U8 sig, I32 status, U64 at, length-prefixed detail, zero pad); because
// every offset is a constant the codec reads and writes it directly —
// no per-field bounds checks on a frame already known to be 112 bytes.
namespace kevent_layout {
constexpr size_t kKind = 0;
constexpr size_t kPid = 1;
constexpr size_t kOther = 5;
constexpr size_t kSig = 9;
constexpr size_t kStatus = 10;
constexpr size_t kAt = 14;
constexpr size_t kDetailLen = 22;
constexpr size_t kDetail = 26;
constexpr size_t kDetailRoom = kKernelEventWireBytes - kDetail;  // 86
}  // namespace kevent_layout

namespace {

inline void StoreU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}
inline void StoreU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}
inline uint32_t LoadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}
inline uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

void SerializeKernelEvent(const host::KernelEvent& ev, WireBuffer& out) {
  PPM_PROF_SCOPE("wire.kevent.encode");
  Metrics().kevent_encoded->Inc();
  namespace L = kevent_layout;
  uint8_t* p = out.FillZeroed(kKernelEventWireBytes);  // one memset: pad comes free
  p[L::kKind] = static_cast<uint8_t>(ev.kind);
  StoreU32(p + L::kPid, static_cast<uint32_t>(ev.pid));
  StoreU32(p + L::kOther, static_cast<uint32_t>(ev.other));
  p[L::kSig] = static_cast<uint8_t>(ev.sig);
  StoreU32(p + L::kStatus, static_cast<uint32_t>(ev.status));
  StoreU64(p + L::kAt, ev.at);
  // Fixed-size detail field: what remains of the 112 bytes.  Truncation
  // is by length — no copy of the detail string is made.
  const size_t dlen = ev.detail.size() < L::kDetailRoom ? ev.detail.size() : L::kDetailRoom;
  StoreU32(p + L::kDetailLen, static_cast<uint32_t>(dlen));
  std::memcpy(p + L::kDetail, ev.detail.data(), dlen);
  PPM_CHECK(out.size() == kKernelEventWireBytes);
}

std::vector<uint8_t> SerializeKernelEvent(const host::KernelEvent& ev) {
  WireBuffer b;
  SerializeKernelEvent(ev, b);
  return b.TakeOut();
}

std::optional<host::KernelEvent> ParseKernelEvent(WireView bytes) {
  PPM_PROF_SCOPE("wire.kevent.decode");
  Metrics().kevent_decoded->Inc();
  namespace L = kevent_layout;
  if (bytes.size() != kKernelEventWireBytes) return std::nullopt;
  const uint8_t* p = bytes.data();
  const uint8_t kind = p[L::kKind];
  if (kind > static_cast<uint8_t>(host::KEvent::kIpcRecv)) return std::nullopt;
  const uint32_t dlen = LoadU32(p + L::kDetailLen);
  if (dlen > L::kDetailRoom) return std::nullopt;
  host::KernelEvent ev;
  ev.kind = static_cast<host::KEvent>(kind);
  ev.pid = static_cast<host::Pid>(static_cast<int32_t>(LoadU32(p + L::kPid)));
  ev.other = static_cast<host::Pid>(static_cast<int32_t>(LoadU32(p + L::kOther)));
  ev.sig = static_cast<host::Signal>(p[L::kSig]);
  ev.status = static_cast<int32_t>(LoadU32(p + L::kStatus));
  ev.at = LoadU64(p + L::kAt);
  ev.detail.assign(reinterpret_cast<const char*>(p + L::kDetail), dlen);
  return ev;
}

// --- field helpers -----------------------------------------------------------

namespace {

void PutGPid(WireBuffer& w, const GPid& g) {
  w.Str(g.host);
  w.I32(g.pid);
}

std::optional<GPid> GetGPid(util::ByteReader& r) {
  auto host = r.Str();
  auto pid = r.I32();
  if (!host || !pid) return std::nullopt;
  GPid g;
  g.host = *host;
  g.pid = *pid;
  return g;
}

void PutStrVec(WireBuffer& w, const std::vector<std::string>& v) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (const auto& s : v) w.Str(s);
}

std::optional<std::vector<std::string>> GetStrVec(util::ByteReader& r) {
  auto n = r.U32();
  if (!n) return std::nullopt;
  // Every element costs at least one byte on the wire, so a count larger
  // than the remaining bytes is corrupt — reject it before reserve()
  // turns it into a giant allocation.
  if (*n > r.remaining()) return std::nullopt;
  std::vector<std::string> v;
  v.reserve(*n);
  for (uint32_t i = 0; i < *n; ++i) {
    auto s = r.Str();
    if (!s) return std::nullopt;
    v.push_back(std::move(*s));
  }
  return v;
}

void PutProcRecord(WireBuffer& w, const ProcRecord& rec) {
  PutGPid(w, rec.gpid);
  PutGPid(w, rec.logical_parent);
  w.I32(rec.uid);
  w.Str(rec.command);
  w.U8(static_cast<uint8_t>(rec.state));
  w.Bool(rec.exited);
  w.U64(rec.start_time);
  w.U64(rec.end_time);
  w.U64(static_cast<uint64_t>(rec.cpu_time));
}

std::optional<ProcRecord> GetProcRecord(util::ByteReader& r) {
  ProcRecord rec;
  auto gpid = GetGPid(r);
  auto parent = GetGPid(r);
  auto uid = r.I32();
  auto command = r.Str();
  auto state = r.U8();
  auto exited = r.Bool();
  auto start = r.U64();
  auto end = r.U64();
  auto cpu = r.U64();
  if (!gpid || !parent || !uid || !command || !state || !exited || !start || !end || !cpu)
    return std::nullopt;
  rec.gpid = std::move(*gpid);
  rec.logical_parent = std::move(*parent);
  rec.uid = *uid;
  rec.command = std::move(*command);
  rec.state = static_cast<host::ProcState>(*state);
  rec.exited = *exited;
  rec.start_time = *start;
  rec.end_time = *end;
  rec.cpu_time = static_cast<sim::SimDuration>(*cpu);
  return rec;
}

void PutRusageRecord(WireBuffer& w, const RusageRecord& rec) {
  PutGPid(w, rec.gpid);
  w.Str(rec.command);
  w.I32(rec.exit_status);
  w.Bool(rec.killed_by_signal);
  w.U8(static_cast<uint8_t>(rec.death_signal));
  w.U64(rec.start_time);
  w.U64(rec.end_time);
  w.U64(static_cast<uint64_t>(rec.rusage.cpu_time));
  w.U64(rec.rusage.messages_sent);
  w.U64(rec.rusage.messages_received);
  w.U64(rec.rusage.files_opened);
  w.U64(rec.rusage.max_rss_kb);
  w.U64(rec.rusage.forks);
}

std::optional<RusageRecord> GetRusageRecord(util::ByteReader& r) {
  RusageRecord rec;
  auto gpid = GetGPid(r);
  auto command = r.Str();
  auto status = r.I32();
  auto killed = r.Bool();
  auto sig = r.U8();
  auto start = r.U64();
  auto end = r.U64();
  auto cpu = r.U64();
  auto sent = r.U64();
  auto recv = r.U64();
  auto files = r.U64();
  auto rss = r.U64();
  auto forks = r.U64();
  if (!gpid || !command || !status || !killed || !sig || !start || !end || !cpu || !sent ||
      !recv || !files || !rss || !forks)
    return std::nullopt;
  rec.gpid = std::move(*gpid);
  rec.command = std::move(*command);
  rec.exit_status = *status;
  rec.killed_by_signal = *killed;
  rec.death_signal = static_cast<host::Signal>(*sig);
  rec.start_time = *start;
  rec.end_time = *end;
  rec.rusage.cpu_time = static_cast<sim::SimDuration>(*cpu);
  rec.rusage.messages_sent = *sent;
  rec.rusage.messages_received = *recv;
  rec.rusage.files_opened = *files;
  rec.rusage.max_rss_kb = *rss;
  rec.rusage.forks = *forks;
  return rec;
}

void PutHistEvent(WireBuffer& w, const HistEvent& ev) {
  w.U64(ev.at);
  w.U8(static_cast<uint8_t>(ev.kind));
  w.I32(ev.pid);
  w.I32(ev.other);
  w.U8(static_cast<uint8_t>(ev.sig));
  w.I32(ev.status);
  w.Str(ev.detail);
}

std::optional<HistEvent> GetHistEvent(util::ByteReader& r) {
  HistEvent ev;
  auto at = r.U64();
  auto kind = r.U8();
  auto pid = r.I32();
  auto other = r.I32();
  auto sig = r.U8();
  auto status = r.I32();
  auto detail = r.Str();
  if (!at || !kind || !pid || !other || !sig || !status || !detail) return std::nullopt;
  ev.at = *at;
  ev.kind = static_cast<host::KEvent>(*kind);
  ev.pid = *pid;
  ev.other = *other;
  ev.sig = static_cast<host::Signal>(*sig);
  ev.status = *status;
  ev.detail = std::move(*detail);
  return ev;
}

void PutTriggerSpec(WireBuffer& w, const TriggerSpec& spec) {
  w.U8(static_cast<uint8_t>(spec.event_kind));
  w.I32(spec.subject_pid);
  w.U8(static_cast<uint8_t>(spec.action));
  w.U8(static_cast<uint8_t>(spec.action_signal));
  PutGPid(w, spec.action_target);
  w.Str(spec.migrate_dest);
  w.Str(spec.spawn_command);
  w.Str(spec.group);
}

std::optional<TriggerSpec> GetTriggerSpec(util::ByteReader& r) {
  TriggerSpec spec;
  auto kind = r.U8();
  auto pid = r.I32();
  auto action = r.U8();
  auto sig = r.U8();
  auto target = GetGPid(r);
  auto dest = r.Str();
  auto cmd = r.Str();
  auto group = r.Str();
  if (!kind || !pid || !action || !sig || !target || !dest || !cmd || !group)
    return std::nullopt;
  if (*action > static_cast<uint8_t>(TriggerAction::kSpawn)) return std::nullopt;
  spec.event_kind = static_cast<host::KEvent>(*kind);
  spec.subject_pid = *pid;
  spec.action = static_cast<TriggerAction>(*action);
  spec.action_signal = static_cast<host::Signal>(*sig);
  spec.action_target = std::move(*target);
  spec.migrate_dest = std::move(*dest);
  spec.spawn_command = std::move(*cmd);
  spec.group = std::move(*group);
  return spec;
}

void PutLpmStatRecord(WireBuffer& w, const LpmStatRecord& rec) {
  w.Str(rec.host);
  w.Str(rec.user);
  w.I32(rec.uid);
  w.I32(rec.lpm_pid);
  w.U8(rec.mode);
  w.Bool(rec.is_ccs);
  w.Str(rec.ccs_host);
  w.I32(rec.recovery_rank);
  PutStrVec(w, rec.siblings);
  w.U32(rec.handlers);
  w.U32(rec.handlers_busy);
  w.U32(rec.queue_depth);
  w.U32(rec.queue_watermark);
  w.U32(rec.tool_circuits);
  w.U64(rec.requests);
  w.U64(rec.forwards);
  w.U64(rec.kernel_events);
  w.U64(rec.handlers_created);
  w.U64(rec.handler_reuses);
  w.U64(rec.snapshots_served);
  w.U64(rec.bcasts_originated);
  w.U64(rec.bcast_duplicates);
  w.U64(rec.triggers_fired);
  w.U64(rec.failures_detected);
  w.U64(rec.recoveries_started);
  w.U64(rec.request_timeouts);
  w.U64(rec.requests_shed);
  w.U64(rec.busy_sent);
  w.U64(rec.retries);
  w.U64(rec.deadline_expired);
  w.U64(rec.dup_suppressed);
  w.U32(rec.breaker_open);
  w.U64(rec.eventlog_size);
  w.U64(rec.eventlog_recorded);
  w.U64(rec.eventlog_filtered);
  w.U64(rec.eventlog_dropped);
  w.U32(static_cast<uint32_t>(rec.dropped_by_pid.size()));
  for (const PidDrop& d : rec.dropped_by_pid) {
    w.I32(d.pid);
    w.U64(d.dropped);
  }
  w.Bool(rec.store_enabled);
  w.U64(rec.journal_seq);
  w.U64(rec.journal_bytes);
  w.U32(rec.journal_pending);
  w.U32(rec.pmd_registry);
  w.U64(rec.pmd_requests);
  w.U64(rec.flight_records);
  w.U64(rec.flight_dumps);
  w.U8(rec.health);
  PutStrVec(w, rec.health_reasons);
  w.U32(static_cast<uint32_t>(rec.procs.size()));
  for (const auto& p : rec.procs) PutProcRecord(w, p);
  w.U32(static_cast<uint32_t>(rec.groups.size()));
  for (const GroupStatEntry& g : rec.groups) {
    w.Str(g.name);
    w.U32(g.members);
    w.U32(g.exited);
  }
  w.U32(static_cast<uint32_t>(rec.barriers.size()));
  for (const BarrierStatEntry& b : rec.barriers) {
    w.Str(b.name);
    w.U64(b.epoch);
    w.U32(b.waiters);
    w.U32(b.expected);
  }
  w.U32(rec.envars);
  w.U32(rec.envar_watchers);
  w.U64(rec.acct_cpu_us);
  w.U64(rec.acct_rusage_records);
}

std::optional<LpmStatRecord> GetLpmStatRecord(util::ByteReader& r) {
  LpmStatRecord rec;
  auto host = r.Str();
  auto user = r.Str();
  auto uid = r.I32();
  auto pid = r.I32();
  auto mode = r.U8();
  auto is_ccs = r.Bool();
  auto ccs = r.Str();
  auto rank = r.I32();
  auto siblings = GetStrVec(r);
  if (!host || !user || !uid || !pid || !mode || !is_ccs || !ccs || !rank || !siblings)
    return std::nullopt;
  rec.host = std::move(*host);
  rec.user = std::move(*user);
  rec.uid = *uid;
  rec.lpm_pid = *pid;
  rec.mode = *mode;
  rec.is_ccs = *is_ccs;
  rec.ccs_host = std::move(*ccs);
  rec.recovery_rank = *rank;
  rec.siblings = std::move(*siblings);
  auto handlers = r.U32();
  auto busy = r.U32();
  auto qdepth = r.U32();
  auto qwater = r.U32();
  auto tools = r.U32();
  if (!handlers || !busy || !qdepth || !qwater || !tools) return std::nullopt;
  rec.handlers = *handlers;
  rec.handlers_busy = *busy;
  rec.queue_depth = *qdepth;
  rec.queue_watermark = *qwater;
  rec.tool_circuits = *tools;
  // The LpmStats counters (twelve classic plus five overload), the
  // breaker gauge, and the four event-log counters, in declaration order.
  uint64_t* counters[] = {
      &rec.requests,         &rec.forwards,          &rec.kernel_events,
      &rec.handlers_created, &rec.handler_reuses,    &rec.snapshots_served,
      &rec.bcasts_originated, &rec.bcast_duplicates, &rec.triggers_fired,
      &rec.failures_detected, &rec.recoveries_started, &rec.request_timeouts,
      &rec.requests_shed,    &rec.busy_sent,         &rec.retries,
      &rec.deadline_expired, &rec.dup_suppressed};
  for (uint64_t* c : counters) {
    auto v = r.U64();
    if (!v) return std::nullopt;
    *c = *v;
  }
  auto breaker = r.U32();
  if (!breaker) return std::nullopt;
  rec.breaker_open = *breaker;
  uint64_t* elog[] = {&rec.eventlog_size, &rec.eventlog_recorded,
                      &rec.eventlog_filtered, &rec.eventlog_dropped};
  for (uint64_t* c : elog) {
    auto v = r.U64();
    if (!v) return std::nullopt;
    *c = *v;
  }
  auto ndrop = r.U32();
  if (!ndrop) return std::nullopt;
  if (*ndrop > r.remaining()) return std::nullopt;  // corrupt count
  rec.dropped_by_pid.reserve(*ndrop);
  for (uint32_t i = 0; i < *ndrop; ++i) {
    auto dpid = r.I32();
    auto dn = r.U64();
    if (!dpid || !dn) return std::nullopt;
    rec.dropped_by_pid.push_back(PidDrop{*dpid, *dn});
  }
  auto store = r.Bool();
  auto jseq = r.U64();
  auto jbytes = r.U64();
  auto jpend = r.U32();
  auto preg = r.U32();
  auto preq = r.U64();
  auto frecs = r.U64();
  auto fdumps = r.U64();
  auto health = r.U8();
  auto reasons = GetStrVec(r);
  if (!store || !jseq || !jbytes || !jpend || !preg || !preq || !frecs || !fdumps ||
      !health || !reasons)
    return std::nullopt;
  rec.store_enabled = *store;
  rec.journal_seq = *jseq;
  rec.journal_bytes = *jbytes;
  rec.journal_pending = *jpend;
  rec.pmd_registry = *preg;
  rec.pmd_requests = *preq;
  rec.flight_records = *frecs;
  rec.flight_dumps = *fdumps;
  rec.health = *health;
  rec.health_reasons = std::move(*reasons);
  auto nprocs = r.U32();
  if (!nprocs) return std::nullopt;
  if (*nprocs > r.remaining()) return std::nullopt;  // corrupt count
  rec.procs.reserve(*nprocs);
  for (uint32_t i = 0; i < *nprocs; ++i) {
    auto p = GetProcRecord(r);
    if (!p) return std::nullopt;
    rec.procs.push_back(std::move(*p));
  }
  auto ngroups = r.U32();
  if (!ngroups) return std::nullopt;
  if (*ngroups > r.remaining()) return std::nullopt;  // corrupt count
  rec.groups.reserve(*ngroups);
  for (uint32_t i = 0; i < *ngroups; ++i) {
    GroupStatEntry g;
    auto name = r.Str();
    auto members = r.U32();
    auto exited = r.U32();
    if (!name || !members || !exited) return std::nullopt;
    g.name = std::move(*name);
    g.members = *members;
    g.exited = *exited;
    rec.groups.push_back(std::move(g));
  }
  auto nbarriers = r.U32();
  if (!nbarriers) return std::nullopt;
  if (*nbarriers > r.remaining()) return std::nullopt;  // corrupt count
  rec.barriers.reserve(*nbarriers);
  for (uint32_t i = 0; i < *nbarriers; ++i) {
    BarrierStatEntry b;
    auto name = r.Str();
    auto epoch = r.U64();
    auto waiters = r.U32();
    auto expected = r.U32();
    if (!name || !epoch || !waiters || !expected) return std::nullopt;
    b.name = std::move(*name);
    b.epoch = *epoch;
    b.waiters = *waiters;
    b.expected = *expected;
    rec.barriers.push_back(std::move(b));
  }
  auto nenv = r.U32();
  auto nwatch = r.U32();
  auto acct_cpu = r.U64();
  auto acct_ru = r.U64();
  if (!nenv || !nwatch || !acct_cpu || !acct_ru) return std::nullopt;
  rec.envars = *nenv;
  rec.envar_watchers = *nwatch;
  rec.acct_cpu_us = *acct_cpu;
  rec.acct_rusage_records = *acct_ru;
  return rec;
}

void PutStatReq(WireBuffer& w, const StatReq& m) {
  w.U64(m.req_id);
  w.Str(m.origin_host);
  w.U64(m.bcast_seq);
  w.U64(m.signed_ts);
  PutStrVec(w, m.route);
  w.Bool(m.dump_flight);
}

void PutStatResp(WireBuffer& w, const StatResp& m) {
  w.U64(m.req_id);
  w.Str(m.origin_host);
  w.U64(m.bcast_seq);
  w.Str(m.replier_host);
  PutStrVec(w, m.forwarded_to);
  PutStrVec(w, m.route);
  w.U32(static_cast<uint32_t>(m.route_index));
  w.U32(static_cast<uint32_t>(m.records.size()));
  for (const auto& rec : m.records) PutLpmStatRecord(w, rec);
}

void PutStatSubscribe(WireBuffer& w, const StatSubscribe& m) {
  w.U64(m.req_id);
  w.Str(m.origin_host);
  w.U64(m.watch_id);
  w.U64(m.bcast_seq);
  w.U64(m.signed_ts);
  PutStrVec(w, m.route);
  w.U64(m.interval_us);
}

void PutStatDeltaRecord(WireBuffer& w, const StatDeltaRecord& rec) {
  w.Str(rec.host);
  w.Str(rec.user);
  w.I32(rec.uid);
  w.U64(rec.seq);
  w.U64(rec.t_us);
  w.U64(rec.dt_us);
  w.U64(rec.d_kernel_events);
  w.U64(rec.d_requests);
  w.U64(rec.d_requests_shed);
  w.U64(rec.d_retries);
  w.U64(rec.d_journal_bytes);
  w.U64(rec.d_eventlog_recorded);
  w.U64(rec.d_acct_cpu_us);
  w.U32(rec.queue_depth);
  w.U32(rec.procs_live);
  w.U8(rec.health);
}

void PutStatDelta(WireBuffer& w, const StatDelta& m) {
  w.U64(m.req_id);
  w.Str(m.origin_host);
  w.U64(m.watch_id);
  w.U32(static_cast<uint32_t>(m.records.size()));
  for (const auto& rec : m.records) PutStatDeltaRecord(w, rec);
}

void PutStatUnsubscribe(WireBuffer& w, const StatUnsubscribe& m) {
  w.U64(m.req_id);
  w.Str(m.origin_host);
  w.U64(m.watch_id);
}

std::optional<StatDeltaRecord> GetStatDeltaRecord(util::ByteReader& r) {
  StatDeltaRecord rec;
  auto host = r.Str();
  auto user = r.Str();
  auto uid = r.I32();
  if (!host || !user || !uid) return std::nullopt;
  rec.host = std::move(*host);
  rec.user = std::move(*user);
  rec.uid = *uid;
  uint64_t* u64s[] = {&rec.seq,
                      &rec.t_us,
                      &rec.dt_us,
                      &rec.d_kernel_events,
                      &rec.d_requests,
                      &rec.d_requests_shed,
                      &rec.d_retries,
                      &rec.d_journal_bytes,
                      &rec.d_eventlog_recorded,
                      &rec.d_acct_cpu_us};
  for (uint64_t* c : u64s) {
    auto v = r.U64();
    if (!v) return std::nullopt;
    *c = *v;
  }
  auto qdepth = r.U32();
  auto live = r.U32();
  auto health = r.U8();
  if (!qdepth || !live || !health) return std::nullopt;
  rec.queue_depth = *qdepth;
  rec.procs_live = *live;
  rec.health = *health;
  return rec;
}

// --- serialize --------------------------------------------------------------

void EncodeMsg(WireBuffer& w, const Msg& msg) {
  // STAT frames do not use the variant index as their wire tag: they
  // ride under the 0xF6 escape opcode plus a request/response sub-byte,
  // so pre-STAT decoders reject them instead of misreading.
  if (const auto* req = std::get_if<StatReq>(&msg)) {
    w.U8(kStatMsgTag);
    w.U8(kStatReqSub);
    PutStatReq(w, *req);
    return;
  }
  if (const auto* resp = std::get_if<StatResp>(&msg)) {
    w.U8(kStatMsgTag);
    w.U8(kStatRespSub);
    PutStatResp(w, *resp);
    return;
  }
  // The subscription sub-ops live in the same 0xF6 family.  They must be
  // intercepted here, before the variant-index branches: their variant
  // indices sit past the group family and would otherwise encode as
  // out-of-range 0xF8 sub-bytes.
  if (const auto* sub = std::get_if<StatSubscribe>(&msg)) {
    w.U8(kStatMsgTag);
    w.U8(kStatSubscribeSub);
    PutStatSubscribe(w, *sub);
    return;
  }
  if (const auto* delta = std::get_if<StatDelta>(&msg)) {
    w.U8(kStatMsgTag);
    w.U8(kStatDeltaSub);
    PutStatDelta(w, *delta);
    return;
  }
  if (const auto* unsub = std::get_if<StatUnsubscribe>(&msg)) {
    w.U8(kStatMsgTag);
    w.U8(kStatUnsubscribeSub);
    PutStatUnsubscribe(w, *unsub);
    return;
  }
  // BUSY rejections likewise ride under their own escape opcode so
  // pre-overload decoders reject rather than misread them.
  if (const auto* busy = std::get_if<BusyResp>(&msg)) {
    w.U8(kBusyMsgTag);
    w.U64(busy->req_id);
    w.Str(busy->error);
    w.U64(busy->retry_after_us);
    return;
  }
  // Group messages ride under the 0xF8 escape opcode plus a sub-byte so
  // pre-group decoders reject rather than misread them.
  if (msg.index() >= kGroupIndexBase) {
    w.U8(kGroupMsgTag);
    w.U8(static_cast<uint8_t>(msg.index() - kGroupIndexBase));
  } else {
    w.U8(static_cast<uint8_t>(msg.index()));
  }
  std::visit(
      [&w](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, HelloSibling>) {
          w.Str(m.user);
          w.Str(m.origin_host);
          w.I32(m.origin_lpm_pid);
          w.U64(m.token);
          w.Str(m.ccs_host);
        } else if constexpr (std::is_same_v<T, HelloTool>) {
          w.Str(m.user);
          w.I32(m.uid);
          w.Str(m.tool_name);
        } else if constexpr (std::is_same_v<T, HelloAck>) {
          w.Str(m.host);
          w.I32(m.lpm_pid);
          w.Str(m.ccs_host);
        } else if constexpr (std::is_same_v<T, HelloReject>) {
          w.Str(m.reason);
        } else if constexpr (std::is_same_v<T, CreateReq>) {
          w.U64(m.req_id);
          w.Str(m.target_host);
          w.Str(m.command);
          PutGPid(w, m.logical_parent);
          w.Bool(m.initially_running);
          w.U32(m.trace_mask);
        } else if constexpr (std::is_same_v<T, CreateResp>) {
          w.U64(m.req_id);
          w.Bool(m.ok);
          w.Str(m.error);
          PutGPid(w, m.gpid);
        } else if constexpr (std::is_same_v<T, SignalReq>) {
          w.U64(m.req_id);
          PutGPid(w, m.target);
          w.U8(static_cast<uint8_t>(m.sig));
        } else if constexpr (std::is_same_v<T, SignalResp>) {
          w.U64(m.req_id);
          w.Bool(m.ok);
          w.Str(m.error);
        } else if constexpr (std::is_same_v<T, SnapshotReq>) {
          w.U64(m.req_id);
          w.Str(m.origin_host);
          w.U64(m.bcast_seq);
          w.U64(m.signed_ts);
          PutStrVec(w, m.route);
        } else if constexpr (std::is_same_v<T, SnapshotResp>) {
          w.U64(m.req_id);
          w.Str(m.origin_host);
          w.U64(m.bcast_seq);
          w.Str(m.replier_host);
          PutStrVec(w, m.forwarded_to);
          PutStrVec(w, m.route);
          w.U32(static_cast<uint32_t>(m.route_index));
          w.U32(static_cast<uint32_t>(m.records.size()));
          for (const auto& rec : m.records) PutProcRecord(w, rec);
        } else if constexpr (std::is_same_v<T, RusageReq>) {
          w.U64(m.req_id);
          w.Str(m.target_host);
        } else if constexpr (std::is_same_v<T, RusageResp>) {
          w.U64(m.req_id);
          w.Bool(m.ok);
          w.Str(m.error);
          w.U32(static_cast<uint32_t>(m.records.size()));
          for (const auto& rec : m.records) PutRusageRecord(w, rec);
        } else if constexpr (std::is_same_v<T, AdoptReq>) {
          w.U64(m.req_id);
          PutGPid(w, m.target);
          w.U32(m.trace_mask);
        } else if constexpr (std::is_same_v<T, AdoptResp>) {
          w.U64(m.req_id);
          w.Bool(m.ok);
          w.Str(m.error);
          w.U32(static_cast<uint32_t>(m.adopted_pids.size()));
          for (int32_t pid : m.adopted_pids) w.I32(pid);
        } else if constexpr (std::is_same_v<T, TraceReq>) {
          w.U64(m.req_id);
          PutGPid(w, m.target);
          w.U32(m.trace_mask);
        } else if constexpr (std::is_same_v<T, TraceResp>) {
          w.U64(m.req_id);
          w.Bool(m.ok);
          w.Str(m.error);
        } else if constexpr (std::is_same_v<T, HistoryReq>) {
          w.U64(m.req_id);
          w.Str(m.target_host);
          w.I32(m.pid_filter);
          w.U32(m.max_events);
        } else if constexpr (std::is_same_v<T, HistoryResp>) {
          w.U64(m.req_id);
          w.Bool(m.ok);
          w.Str(m.error);
          w.U32(static_cast<uint32_t>(m.events.size()));
          for (const auto& ev : m.events) PutHistEvent(w, ev);
        } else if constexpr (std::is_same_v<T, TriggerReq>) {
          w.U64(m.req_id);
          w.Str(m.target_host);
          PutTriggerSpec(w, m.spec);
        } else if constexpr (std::is_same_v<T, TriggerResp>) {
          w.U64(m.req_id);
          w.Bool(m.ok);
          w.Str(m.error);
          w.U64(m.trigger_id);
        } else if constexpr (std::is_same_v<T, FilesReq>) {
          w.U64(m.req_id);
          PutGPid(w, m.target);
        } else if constexpr (std::is_same_v<T, FilesResp>) {
          w.U64(m.req_id);
          w.Bool(m.ok);
          w.Str(m.error);
          w.U32(static_cast<uint32_t>(m.files.size()));
          for (const auto& f : m.files) {
            w.I32(f.fd);
            w.Str(f.path);
            w.Str(f.mode);
          }
        } else if constexpr (std::is_same_v<T, MigrateReq>) {
          w.U64(m.req_id);
          PutGPid(w, m.target);
          w.Str(m.dest_host);
        } else if constexpr (std::is_same_v<T, MigrateResp>) {
          w.U64(m.req_id);
          w.Bool(m.ok);
          w.Str(m.error);
          PutGPid(w, m.new_gpid);
        } else if constexpr (std::is_same_v<T, RegisterChild>) {
          w.I32(m.parent_pid);
          PutGPid(w, m.child);
        } else if constexpr (std::is_same_v<T, BecomeCcs>) {
          w.Str(m.requested_by);
        } else if constexpr (std::is_same_v<T, CcsChanged>) {
          w.Str(m.new_ccs);
        } else if constexpr (std::is_same_v<T, Probe>) {
          w.U64(m.req_id);
        } else if constexpr (std::is_same_v<T, ProbeAck>) {
          w.U64(m.req_id);
          w.Str(m.host);
          w.Bool(m.is_ccs);
        } else if constexpr (std::is_same_v<T, GroupSpawnReq>) {
          w.U64(m.req_id);
          w.Str(m.group);
          PutStrVec(w, m.hosts);
          PutStrVec(w, m.commands);
        } else if constexpr (std::is_same_v<T, GroupSpawnResp>) {
          w.U64(m.req_id);
          w.Bool(m.ok);
          w.Str(m.error);
          w.U32(static_cast<uint32_t>(m.members.size()));
          for (const auto& g : m.members) PutGPid(w, g);
          PutStrVec(w, m.host_errors);
        } else if constexpr (std::is_same_v<T, GroupPartReq>) {
          w.U64(m.req_id);
          w.Str(m.group);
          w.Str(m.coordinator);
          w.Str(m.command);
        } else if constexpr (std::is_same_v<T, GroupPartResp>) {
          w.U64(m.req_id);
          w.Bool(m.ok);
          w.Str(m.error);
          PutGPid(w, m.gpid);
        } else if constexpr (std::is_same_v<T, GroupUndoReq>) {
          w.U64(m.req_id);
          w.Str(m.group);
          PutGPid(w, m.target);
        } else if constexpr (std::is_same_v<T, GroupAck>) {
          w.U64(m.req_id);
          w.Bool(m.ok);
          w.Str(m.error);
          w.Str(m.ccs_hint);
        } else if constexpr (std::is_same_v<T, GroupExitNotify>) {
          w.U64(m.req_id);
          w.Str(m.group);
          PutGPid(w, m.gpid);
          w.I32(m.exit_status);
        } else if constexpr (std::is_same_v<T, GroupAddNotify>) {
          w.U64(m.req_id);
          w.Str(m.group);
          PutGPid(w, m.gpid);
        } else if constexpr (std::is_same_v<T, GroupSignalReq>) {
          w.U64(m.req_id);
          w.Str(m.group);
          w.U8(static_cast<uint8_t>(m.sig));
        } else if constexpr (std::is_same_v<T, GroupSignalResp>) {
          w.U64(m.req_id);
          w.Bool(m.ok);
          w.Str(m.error);
          w.U32(m.delivered);
          w.U32(m.failed);
        } else if constexpr (std::is_same_v<T, GroupJoinReq>) {
          w.U64(m.req_id);
          w.Str(m.group);
        } else if constexpr (std::is_same_v<T, GroupJoinResp>) {
          w.U64(m.req_id);
          w.Bool(m.ok);
          w.Str(m.error);
          w.Str(m.group);
          w.U32(static_cast<uint32_t>(m.exits.size()));
          for (const auto& e : m.exits) {
            PutGPid(w, e.gpid);
            w.I32(e.exit_status);
          }
        } else if constexpr (std::is_same_v<T, BarrierEnterReq>) {
          w.U64(m.req_id);
          w.Str(m.name);
          w.U64(m.epoch);
          w.U32(m.expected);
        } else if constexpr (std::is_same_v<T, BarrierEnterResp>) {
          w.U64(m.req_id);
          w.Bool(m.ok);
          w.Str(m.error);
          w.Bool(m.released);
          w.U64(m.epoch);
          PutStrVec(w, m.stragglers);
        } else if constexpr (std::is_same_v<T, BarrierJoinReq>) {
          w.U64(m.req_id);
          w.Str(m.name);
          w.U64(m.epoch);
          w.U32(m.expected);
          w.Str(m.host);
          w.U32(m.count);
        } else if constexpr (std::is_same_v<T, BarrierReleaseReq>) {
          w.U64(m.req_id);
          w.Str(m.name);
          w.U64(m.epoch);
          w.Bool(m.released);
          PutStrVec(w, m.stragglers);
        } else if constexpr (std::is_same_v<T, EnvarSetReq>) {
          w.U64(m.req_id);
          w.Str(m.key);
          w.Str(m.value);
        } else if constexpr (std::is_same_v<T, EnvarSetResp>) {
          w.U64(m.req_id);
          w.Bool(m.ok);
          w.Str(m.error);
          w.U64(m.version);
        } else if constexpr (std::is_same_v<T, EnvarGetReq>) {
          w.U64(m.req_id);
          w.Str(m.key);
        } else if constexpr (std::is_same_v<T, EnvarGetResp>) {
          w.U64(m.req_id);
          w.Bool(m.ok);
          w.Str(m.error);
          w.Str(m.key);
          w.Str(m.value);
          w.U64(m.version);
        } else if constexpr (std::is_same_v<T, EnvarUpdate>) {
          w.U64(m.req_id);
          w.Str(m.origin_host);
          w.U64(m.bcast_seq);
          w.U64(m.signed_ts);
          PutStrVec(w, m.route);
          w.Str(m.key);
          w.Str(m.value);
          w.U64(m.version);
          w.Str(m.version_origin);
        } else if constexpr (std::is_same_v<T, EnvarSync>) {
          w.U64(m.req_id);
          w.U32(static_cast<uint32_t>(m.entries.size()));
          for (const auto& e : m.entries) {
            w.Str(e.key);
            w.Str(e.value);
            w.U64(e.version);
            w.Str(e.origin);
          }
        } else if constexpr (std::is_same_v<T, EnvarWatchReq>) {
          w.U64(m.req_id);
          w.Str(m.key);
          PutTriggerSpec(w, m.spec);
        } else if constexpr (std::is_same_v<T, EnvarWatchResp>) {
          w.U64(m.req_id);
          w.Bool(m.ok);
          w.Str(m.error);
          w.U64(m.watch_id);
        }
      },
      msg);
}

}  // namespace

namespace {

obs::Counter* CorruptFramesCounter() {
  static obs::Counter* c = obs::Registry::Instance().GetCounter("net.corrupt_frames");
  return c;
}

}  // namespace

void Serialize(const Msg& msg, const obs::TraceContext& trace,
               const DeadlineStamp& stamp, WireBuffer& out) {
  PPM_PROF_SCOPE("wire.encode");
  Metrics().frames_encoded->Inc();
  Metrics().hdr_checksum_bytes->Inc(kChecksumHeaderBytes);
  out.Clear();
  // Checksum header first, with a placeholder checksum patched in after
  // the body is encoded — one pass, no copy of the frame body.
  out.U8(kChecksumHeaderTag);
  out.U16(0);
  if (trace.valid()) {
    Metrics().hdr_trace_bytes->Inc(kTraceHeaderBytes);
    out.U8(kTraceHeaderTag);
    out.U64(trace.trace_id);
    out.U64(trace.span_id);
    out.U64(trace.parent_span);
  }
  if (stamp.valid()) {
    Metrics().hdr_deadline_bytes->Inc(kDeadlineHeaderBytes);
    out.U8(kDeadlineHeaderTag);
    out.U64(stamp.deadline_us);
    out.U64(stamp.idem_token);
  }
  EncodeMsg(out, msg);
  uint16_t ck =
      util::Fletcher16(out.data() + kChecksumHeaderBytes, out.size() - kChecksumHeaderBytes);
  out.PatchU16(1, ck);
}

void Serialize(const Msg& msg, const obs::TraceContext& trace, WireBuffer& out) {
  Serialize(msg, trace, DeadlineStamp{}, out);
}

std::vector<uint8_t> Serialize(const Msg& msg) {
  WireBuffer b;
  Serialize(msg, obs::TraceContext{}, DeadlineStamp{}, b);
  return b.TakeOut();
}

std::vector<uint8_t> Serialize(const Msg& msg, const obs::TraceContext& trace) {
  WireBuffer b;
  Serialize(msg, trace, DeadlineStamp{}, b);
  return b.TakeOut();
}

std::vector<uint8_t> Serialize(const Msg& msg, const obs::TraceContext& trace,
                               const DeadlineStamp& stamp) {
  WireBuffer b;
  Serialize(msg, trace, stamp, b);
  return b.TakeOut();
}

// --- parse ---------------------------------------------------------------------

namespace {

template <typename T>
std::optional<Msg> Lift(std::optional<T> m) {
  if (!m) return std::nullopt;
  return Msg{std::move(*m)};
}

std::optional<HelloSibling> ParseHelloSibling(util::ByteReader& r) {
  HelloSibling m;
  auto user = r.Str();
  auto oh = r.Str();
  auto pid = r.I32();
  auto token = r.U64();
  auto ccs = r.Str();
  if (!user || !oh || !pid || !token || !ccs) return std::nullopt;
  m.user = *user;
  m.origin_host = *oh;
  m.origin_lpm_pid = *pid;
  m.token = *token;
  m.ccs_host = *ccs;
  return m;
}

std::optional<HelloTool> ParseHelloTool(util::ByteReader& r) {
  HelloTool m;
  auto user = r.Str();
  auto uid = r.I32();
  auto name = r.Str();
  if (!user || !uid || !name) return std::nullopt;
  m.user = *user;
  m.uid = *uid;
  m.tool_name = *name;
  return m;
}

std::optional<HelloAck> ParseHelloAck(util::ByteReader& r) {
  HelloAck m;
  auto host = r.Str();
  auto pid = r.I32();
  auto ccs = r.Str();
  if (!host || !pid || !ccs) return std::nullopt;
  m.host = *host;
  m.lpm_pid = *pid;
  m.ccs_host = *ccs;
  return m;
}

std::optional<HelloReject> ParseHelloReject(util::ByteReader& r) {
  auto reason = r.Str();
  if (!reason) return std::nullopt;
  HelloReject m;
  m.reason = *reason;
  return m;
}

std::optional<CreateReq> ParseCreateReq(util::ByteReader& r) {
  CreateReq m;
  auto id = r.U64();
  auto host = r.Str();
  auto cmd = r.Str();
  auto parent = GetGPid(r);
  auto running = r.Bool();
  auto mask = r.U32();
  if (!id || !host || !cmd || !parent || !running || !mask) return std::nullopt;
  m.req_id = *id;
  m.target_host = *host;
  m.command = *cmd;
  m.logical_parent = std::move(*parent);
  m.initially_running = *running;
  m.trace_mask = *mask;
  return m;
}

std::optional<CreateResp> ParseCreateResp(util::ByteReader& r) {
  CreateResp m;
  auto id = r.U64();
  auto ok = r.Bool();
  auto err = r.Str();
  auto gpid = GetGPid(r);
  if (!id || !ok || !err || !gpid) return std::nullopt;
  m.req_id = *id;
  m.ok = *ok;
  m.error = *err;
  m.gpid = std::move(*gpid);
  return m;
}

std::optional<SignalReq> ParseSignalReq(util::ByteReader& r) {
  SignalReq m;
  auto id = r.U64();
  auto target = GetGPid(r);
  auto sig = r.U8();
  if (!id || !target || !sig) return std::nullopt;
  m.req_id = *id;
  m.target = std::move(*target);
  m.sig = static_cast<host::Signal>(*sig);
  return m;
}

std::optional<SignalResp> ParseSignalResp(util::ByteReader& r) {
  SignalResp m;
  auto id = r.U64();
  auto ok = r.Bool();
  auto err = r.Str();
  if (!id || !ok || !err) return std::nullopt;
  m.req_id = *id;
  m.ok = *ok;
  m.error = *err;
  return m;
}

std::optional<SnapshotReq> ParseSnapshotReq(util::ByteReader& r) {
  SnapshotReq m;
  auto id = r.U64();
  auto origin = r.Str();
  auto seq = r.U64();
  auto ts = r.U64();
  auto route = GetStrVec(r);
  if (!id || !origin || !seq || !ts || !route) return std::nullopt;
  m.req_id = *id;
  m.origin_host = *origin;
  m.bcast_seq = *seq;
  m.signed_ts = *ts;
  m.route = std::move(*route);
  return m;
}

std::optional<SnapshotResp> ParseSnapshotResp(util::ByteReader& r) {
  SnapshotResp m;
  auto id = r.U64();
  auto origin = r.Str();
  auto seq = r.U64();
  auto replier = r.Str();
  auto fwd = GetStrVec(r);
  auto route = GetStrVec(r);
  auto idx = r.U32();
  auto n = r.U32();
  if (!id || !origin || !seq || !replier || !fwd || !route || !idx || !n)
    return std::nullopt;
  m.req_id = *id;
  m.origin_host = *origin;
  m.bcast_seq = *seq;
  m.replier_host = *replier;
  m.forwarded_to = std::move(*fwd);
  m.route = std::move(*route);
  m.route_index = *idx;
  if (*n > r.remaining()) return std::nullopt;  // corrupt count
  m.records.reserve(*n);
  for (uint32_t i = 0; i < *n; ++i) {
    auto rec = GetProcRecord(r);
    if (!rec) return std::nullopt;
    m.records.push_back(std::move(*rec));
  }
  return m;
}

std::optional<RusageReq> ParseRusageReq(util::ByteReader& r) {
  RusageReq m;
  auto id = r.U64();
  auto host = r.Str();
  if (!id || !host) return std::nullopt;
  m.req_id = *id;
  m.target_host = *host;
  return m;
}

std::optional<RusageResp> ParseRusageResp(util::ByteReader& r) {
  RusageResp m;
  auto id = r.U64();
  auto ok = r.Bool();
  auto err = r.Str();
  auto n = r.U32();
  if (!id || !ok || !err || !n) return std::nullopt;
  m.req_id = *id;
  m.ok = *ok;
  m.error = *err;
  if (*n > r.remaining()) return std::nullopt;  // corrupt count
  m.records.reserve(*n);
  for (uint32_t i = 0; i < *n; ++i) {
    auto rec = GetRusageRecord(r);
    if (!rec) return std::nullopt;
    m.records.push_back(std::move(*rec));
  }
  return m;
}

std::optional<AdoptReq> ParseAdoptReq(util::ByteReader& r) {
  AdoptReq m;
  auto id = r.U64();
  auto target = GetGPid(r);
  auto mask = r.U32();
  if (!id || !target || !mask) return std::nullopt;
  m.req_id = *id;
  m.target = std::move(*target);
  m.trace_mask = *mask;
  return m;
}

std::optional<AdoptResp> ParseAdoptResp(util::ByteReader& r) {
  AdoptResp m;
  auto id = r.U64();
  auto ok = r.Bool();
  auto err = r.Str();
  auto n = r.U32();
  if (!id || !ok || !err || !n) return std::nullopt;
  m.req_id = *id;
  m.ok = *ok;
  m.error = *err;
  for (uint32_t i = 0; i < *n; ++i) {
    auto pid = r.I32();
    if (!pid) return std::nullopt;
    m.adopted_pids.push_back(*pid);
  }
  return m;
}

std::optional<TraceReq> ParseTraceReq(util::ByteReader& r) {
  TraceReq m;
  auto id = r.U64();
  auto target = GetGPid(r);
  auto mask = r.U32();
  if (!id || !target || !mask) return std::nullopt;
  m.req_id = *id;
  m.target = std::move(*target);
  m.trace_mask = *mask;
  return m;
}

std::optional<TraceResp> ParseTraceResp(util::ByteReader& r) {
  TraceResp m;
  auto id = r.U64();
  auto ok = r.Bool();
  auto err = r.Str();
  if (!id || !ok || !err) return std::nullopt;
  m.req_id = *id;
  m.ok = *ok;
  m.error = *err;
  return m;
}

std::optional<HistoryReq> ParseHistoryReq(util::ByteReader& r) {
  HistoryReq m;
  auto id = r.U64();
  auto host = r.Str();
  auto filter = r.I32();
  auto max = r.U32();
  if (!id || !host || !filter || !max) return std::nullopt;
  m.req_id = *id;
  m.target_host = *host;
  m.pid_filter = *filter;
  m.max_events = *max;
  return m;
}

std::optional<HistoryResp> ParseHistoryResp(util::ByteReader& r) {
  HistoryResp m;
  auto id = r.U64();
  auto ok = r.Bool();
  auto err = r.Str();
  auto n = r.U32();
  if (!id || !ok || !err || !n) return std::nullopt;
  m.req_id = *id;
  m.ok = *ok;
  m.error = *err;
  if (*n > r.remaining()) return std::nullopt;  // corrupt count
  m.events.reserve(*n);
  for (uint32_t i = 0; i < *n; ++i) {
    auto ev = GetHistEvent(r);
    if (!ev) return std::nullopt;
    m.events.push_back(std::move(*ev));
  }
  return m;
}

std::optional<TriggerReq> ParseTriggerReq(util::ByteReader& r) {
  TriggerReq m;
  auto id = r.U64();
  auto host = r.Str();
  auto spec = GetTriggerSpec(r);
  if (!id || !host || !spec) return std::nullopt;
  m.req_id = *id;
  m.target_host = *host;
  m.spec = std::move(*spec);
  return m;
}

std::optional<TriggerResp> ParseTriggerResp(util::ByteReader& r) {
  TriggerResp m;
  auto id = r.U64();
  auto ok = r.Bool();
  auto err = r.Str();
  auto tid = r.U64();
  if (!id || !ok || !err || !tid) return std::nullopt;
  m.req_id = *id;
  m.ok = *ok;
  m.error = *err;
  m.trigger_id = *tid;
  return m;
}

std::optional<FilesReq> ParseFilesReq(util::ByteReader& r) {
  FilesReq m;
  auto id = r.U64();
  auto target = GetGPid(r);
  if (!id || !target) return std::nullopt;
  m.req_id = *id;
  m.target = std::move(*target);
  return m;
}

std::optional<FilesResp> ParseFilesResp(util::ByteReader& r) {
  FilesResp m;
  auto id = r.U64();
  auto ok = r.Bool();
  auto err = r.Str();
  auto n = r.U32();
  if (!id || !ok || !err || !n) return std::nullopt;
  for (uint32_t i = 0; i < *n; ++i) {
    FileRecord f;
    auto fd = r.I32();
    auto path = r.Str();
    auto mode = r.Str();
    if (!fd || !path || !mode) return std::nullopt;
    f.fd = *fd;
    f.path = std::move(*path);
    f.mode = std::move(*mode);
    m.files.push_back(std::move(f));
  }
  m.req_id = *id;
  m.ok = *ok;
  m.error = *err;
  return m;
}

std::optional<MigrateReq> ParseMigrateReq(util::ByteReader& r) {
  MigrateReq m;
  auto id = r.U64();
  auto target = GetGPid(r);
  auto dest = r.Str();
  if (!id || !target || !dest) return std::nullopt;
  m.req_id = *id;
  m.target = std::move(*target);
  m.dest_host = std::move(*dest);
  return m;
}

std::optional<MigrateResp> ParseMigrateResp(util::ByteReader& r) {
  MigrateResp m;
  auto id = r.U64();
  auto ok = r.Bool();
  auto err = r.Str();
  auto gpid = GetGPid(r);
  if (!id || !ok || !err || !gpid) return std::nullopt;
  m.req_id = *id;
  m.ok = *ok;
  m.error = *err;
  m.new_gpid = std::move(*gpid);
  return m;
}

std::optional<RegisterChild> ParseRegisterChild(util::ByteReader& r) {
  RegisterChild m;
  auto pid = r.I32();
  auto child = GetGPid(r);
  if (!pid || !child) return std::nullopt;
  m.parent_pid = *pid;
  m.child = std::move(*child);
  return m;
}

std::optional<BecomeCcs> ParseBecomeCcs(util::ByteReader& r) {
  auto by = r.Str();
  if (!by) return std::nullopt;
  BecomeCcs m;
  m.requested_by = *by;
  return m;
}

std::optional<CcsChanged> ParseCcsChanged(util::ByteReader& r) {
  auto ccs = r.Str();
  if (!ccs) return std::nullopt;
  CcsChanged m;
  m.new_ccs = *ccs;
  return m;
}

std::optional<Probe> ParseProbe(util::ByteReader& r) {
  auto id = r.U64();
  if (!id) return std::nullopt;
  Probe m;
  m.req_id = *id;
  return m;
}

std::optional<StatReq> ParseStatReq(util::ByteReader& r) {
  StatReq m;
  auto id = r.U64();
  auto origin = r.Str();
  auto seq = r.U64();
  auto ts = r.U64();
  auto route = GetStrVec(r);
  auto dump = r.Bool();
  if (!id || !origin || !seq || !ts || !route || !dump) return std::nullopt;
  m.req_id = *id;
  m.origin_host = *origin;
  m.bcast_seq = *seq;
  m.signed_ts = *ts;
  m.route = std::move(*route);
  m.dump_flight = *dump;
  return m;
}

std::optional<StatResp> ParseStatResp(util::ByteReader& r) {
  StatResp m;
  auto id = r.U64();
  auto origin = r.Str();
  auto seq = r.U64();
  auto replier = r.Str();
  auto fwd = GetStrVec(r);
  auto route = GetStrVec(r);
  auto idx = r.U32();
  auto n = r.U32();
  if (!id || !origin || !seq || !replier || !fwd || !route || !idx || !n)
    return std::nullopt;
  m.req_id = *id;
  m.origin_host = *origin;
  m.bcast_seq = *seq;
  m.replier_host = *replier;
  m.forwarded_to = std::move(*fwd);
  m.route = std::move(*route);
  m.route_index = *idx;
  if (*n > r.remaining()) return std::nullopt;  // corrupt count
  m.records.reserve(*n);
  for (uint32_t i = 0; i < *n; ++i) {
    auto rec = GetLpmStatRecord(r);
    if (!rec) return std::nullopt;
    m.records.push_back(std::move(*rec));
  }
  return m;
}

std::optional<StatSubscribe> ParseStatSubscribe(util::ByteReader& r) {
  StatSubscribe m;
  auto id = r.U64();
  auto origin = r.Str();
  auto watch = r.U64();
  auto seq = r.U64();
  auto ts = r.U64();
  auto route = GetStrVec(r);
  auto interval = r.U64();
  if (!id || !origin || !watch || !seq || !ts || !route || !interval)
    return std::nullopt;
  m.req_id = *id;
  m.origin_host = *origin;
  m.watch_id = *watch;
  m.bcast_seq = *seq;
  m.signed_ts = *ts;
  m.route = std::move(*route);
  m.interval_us = *interval;
  return m;
}

std::optional<StatDelta> ParseStatDelta(util::ByteReader& r) {
  StatDelta m;
  auto id = r.U64();
  auto origin = r.Str();
  auto watch = r.U64();
  auto n = r.U32();
  if (!id || !origin || !watch || !n) return std::nullopt;
  m.req_id = *id;
  m.origin_host = *origin;
  m.watch_id = *watch;
  if (*n > r.remaining()) return std::nullopt;  // corrupt count
  m.records.reserve(*n);
  for (uint32_t i = 0; i < *n; ++i) {
    auto rec = GetStatDeltaRecord(r);
    if (!rec) return std::nullopt;
    m.records.push_back(std::move(*rec));
  }
  return m;
}

std::optional<StatUnsubscribe> ParseStatUnsubscribe(util::ByteReader& r) {
  StatUnsubscribe m;
  auto id = r.U64();
  auto origin = r.Str();
  auto watch = r.U64();
  if (!id || !origin || !watch) return std::nullopt;
  m.req_id = *id;
  m.origin_host = *origin;
  m.watch_id = *watch;
  return m;
}

std::optional<ProbeAck> ParseProbeAck(util::ByteReader& r) {
  ProbeAck m;
  auto id = r.U64();
  auto host = r.Str();
  auto is_ccs = r.Bool();
  if (!id || !host || !is_ccs) return std::nullopt;
  m.req_id = *id;
  m.host = *host;
  m.is_ccs = *is_ccs;
  return m;
}

// --- group message parsers (the 0xF8 family) -------------------------------

std::optional<GroupSpawnReq> ParseGroupSpawnReq(util::ByteReader& r) {
  GroupSpawnReq m;
  auto id = r.U64();
  auto group = r.Str();
  auto hosts = GetStrVec(r);
  auto commands = GetStrVec(r);
  if (!id || !group || !hosts || !commands) return std::nullopt;
  m.req_id = *id;
  m.group = std::move(*group);
  m.hosts = std::move(*hosts);
  m.commands = std::move(*commands);
  return m;
}

std::optional<GroupSpawnResp> ParseGroupSpawnResp(util::ByteReader& r) {
  GroupSpawnResp m;
  auto id = r.U64();
  auto ok = r.Bool();
  auto err = r.Str();
  auto n = r.U32();
  if (!id || !ok || !err || !n) return std::nullopt;
  if (*n > r.remaining()) return std::nullopt;  // corrupt count
  m.members.reserve(*n);
  for (uint32_t i = 0; i < *n; ++i) {
    auto g = GetGPid(r);
    if (!g) return std::nullopt;
    m.members.push_back(std::move(*g));
  }
  auto errors = GetStrVec(r);
  if (!errors) return std::nullopt;
  m.req_id = *id;
  m.ok = *ok;
  m.error = std::move(*err);
  m.host_errors = std::move(*errors);
  return m;
}

std::optional<GroupPartReq> ParseGroupPartReq(util::ByteReader& r) {
  GroupPartReq m;
  auto id = r.U64();
  auto group = r.Str();
  auto coord = r.Str();
  auto cmd = r.Str();
  if (!id || !group || !coord || !cmd) return std::nullopt;
  m.req_id = *id;
  m.group = std::move(*group);
  m.coordinator = std::move(*coord);
  m.command = std::move(*cmd);
  return m;
}

std::optional<GroupPartResp> ParseGroupPartResp(util::ByteReader& r) {
  GroupPartResp m;
  auto id = r.U64();
  auto ok = r.Bool();
  auto err = r.Str();
  auto gpid = GetGPid(r);
  if (!id || !ok || !err || !gpid) return std::nullopt;
  m.req_id = *id;
  m.ok = *ok;
  m.error = std::move(*err);
  m.gpid = std::move(*gpid);
  return m;
}

std::optional<GroupUndoReq> ParseGroupUndoReq(util::ByteReader& r) {
  GroupUndoReq m;
  auto id = r.U64();
  auto group = r.Str();
  auto target = GetGPid(r);
  if (!id || !group || !target) return std::nullopt;
  m.req_id = *id;
  m.group = std::move(*group);
  m.target = std::move(*target);
  return m;
}

std::optional<GroupAck> ParseGroupAck(util::ByteReader& r) {
  GroupAck m;
  auto id = r.U64();
  auto ok = r.Bool();
  auto err = r.Str();
  auto hint = r.Str();
  if (!id || !ok || !err || !hint) return std::nullopt;
  m.req_id = *id;
  m.ok = *ok;
  m.error = std::move(*err);
  m.ccs_hint = std::move(*hint);
  return m;
}

std::optional<GroupExitNotify> ParseGroupExitNotify(util::ByteReader& r) {
  GroupExitNotify m;
  auto id = r.U64();
  auto group = r.Str();
  auto gpid = GetGPid(r);
  auto status = r.I32();
  if (!id || !group || !gpid || !status) return std::nullopt;
  m.req_id = *id;
  m.group = std::move(*group);
  m.gpid = std::move(*gpid);
  m.exit_status = *status;
  return m;
}

std::optional<GroupAddNotify> ParseGroupAddNotify(util::ByteReader& r) {
  GroupAddNotify m;
  auto id = r.U64();
  auto group = r.Str();
  auto gpid = GetGPid(r);
  if (!id || !group || !gpid) return std::nullopt;
  m.req_id = *id;
  m.group = std::move(*group);
  m.gpid = std::move(*gpid);
  return m;
}

std::optional<GroupSignalReq> ParseGroupSignalReq(util::ByteReader& r) {
  GroupSignalReq m;
  auto id = r.U64();
  auto group = r.Str();
  auto sig = r.U8();
  if (!id || !group || !sig) return std::nullopt;
  m.req_id = *id;
  m.group = std::move(*group);
  m.sig = static_cast<host::Signal>(*sig);
  return m;
}

std::optional<GroupSignalResp> ParseGroupSignalResp(util::ByteReader& r) {
  GroupSignalResp m;
  auto id = r.U64();
  auto ok = r.Bool();
  auto err = r.Str();
  auto delivered = r.U32();
  auto failed = r.U32();
  if (!id || !ok || !err || !delivered || !failed) return std::nullopt;
  m.req_id = *id;
  m.ok = *ok;
  m.error = std::move(*err);
  m.delivered = *delivered;
  m.failed = *failed;
  return m;
}

std::optional<GroupJoinReq> ParseGroupJoinReq(util::ByteReader& r) {
  GroupJoinReq m;
  auto id = r.U64();
  auto group = r.Str();
  if (!id || !group) return std::nullopt;
  m.req_id = *id;
  m.group = std::move(*group);
  return m;
}

std::optional<GroupJoinResp> ParseGroupJoinResp(util::ByteReader& r) {
  GroupJoinResp m;
  auto id = r.U64();
  auto ok = r.Bool();
  auto err = r.Str();
  auto group = r.Str();
  auto n = r.U32();
  if (!id || !ok || !err || !group || !n) return std::nullopt;
  if (*n > r.remaining()) return std::nullopt;  // corrupt count
  m.exits.reserve(*n);
  for (uint32_t i = 0; i < *n; ++i) {
    GroupExit e;
    auto gpid = GetGPid(r);
    auto status = r.I32();
    if (!gpid || !status) return std::nullopt;
    e.gpid = std::move(*gpid);
    e.exit_status = *status;
    m.exits.push_back(std::move(e));
  }
  m.req_id = *id;
  m.ok = *ok;
  m.error = std::move(*err);
  m.group = std::move(*group);
  return m;
}

std::optional<BarrierEnterReq> ParseBarrierEnterReq(util::ByteReader& r) {
  BarrierEnterReq m;
  auto id = r.U64();
  auto name = r.Str();
  auto epoch = r.U64();
  auto expected = r.U32();
  if (!id || !name || !epoch || !expected) return std::nullopt;
  m.req_id = *id;
  m.name = std::move(*name);
  m.epoch = *epoch;
  m.expected = *expected;
  return m;
}

std::optional<BarrierEnterResp> ParseBarrierEnterResp(util::ByteReader& r) {
  BarrierEnterResp m;
  auto id = r.U64();
  auto ok = r.Bool();
  auto err = r.Str();
  auto released = r.Bool();
  auto epoch = r.U64();
  auto stragglers = GetStrVec(r);
  if (!id || !ok || !err || !released || !epoch || !stragglers) return std::nullopt;
  m.req_id = *id;
  m.ok = *ok;
  m.error = std::move(*err);
  m.released = *released;
  m.epoch = *epoch;
  m.stragglers = std::move(*stragglers);
  return m;
}

std::optional<BarrierJoinReq> ParseBarrierJoinReq(util::ByteReader& r) {
  BarrierJoinReq m;
  auto id = r.U64();
  auto name = r.Str();
  auto epoch = r.U64();
  auto expected = r.U32();
  auto host = r.Str();
  auto count = r.U32();
  if (!id || !name || !epoch || !expected || !host || !count) return std::nullopt;
  m.req_id = *id;
  m.name = std::move(*name);
  m.epoch = *epoch;
  m.expected = *expected;
  m.host = std::move(*host);
  m.count = *count;
  return m;
}

std::optional<BarrierReleaseReq> ParseBarrierReleaseReq(util::ByteReader& r) {
  BarrierReleaseReq m;
  auto id = r.U64();
  auto name = r.Str();
  auto epoch = r.U64();
  auto released = r.Bool();
  auto stragglers = GetStrVec(r);
  if (!id || !name || !epoch || !released || !stragglers) return std::nullopt;
  m.req_id = *id;
  m.name = std::move(*name);
  m.epoch = *epoch;
  m.released = *released;
  m.stragglers = std::move(*stragglers);
  return m;
}

std::optional<EnvarSetReq> ParseEnvarSetReq(util::ByteReader& r) {
  EnvarSetReq m;
  auto id = r.U64();
  auto key = r.Str();
  auto value = r.Str();
  if (!id || !key || !value) return std::nullopt;
  m.req_id = *id;
  m.key = std::move(*key);
  m.value = std::move(*value);
  return m;
}

std::optional<EnvarSetResp> ParseEnvarSetResp(util::ByteReader& r) {
  EnvarSetResp m;
  auto id = r.U64();
  auto ok = r.Bool();
  auto err = r.Str();
  auto version = r.U64();
  if (!id || !ok || !err || !version) return std::nullopt;
  m.req_id = *id;
  m.ok = *ok;
  m.error = std::move(*err);
  m.version = *version;
  return m;
}

std::optional<EnvarGetReq> ParseEnvarGetReq(util::ByteReader& r) {
  EnvarGetReq m;
  auto id = r.U64();
  auto key = r.Str();
  if (!id || !key) return std::nullopt;
  m.req_id = *id;
  m.key = std::move(*key);
  return m;
}

std::optional<EnvarGetResp> ParseEnvarGetResp(util::ByteReader& r) {
  EnvarGetResp m;
  auto id = r.U64();
  auto ok = r.Bool();
  auto err = r.Str();
  auto key = r.Str();
  auto value = r.Str();
  auto version = r.U64();
  if (!id || !ok || !err || !key || !value || !version) return std::nullopt;
  m.req_id = *id;
  m.ok = *ok;
  m.error = std::move(*err);
  m.key = std::move(*key);
  m.value = std::move(*value);
  m.version = *version;
  return m;
}

std::optional<EnvarUpdate> ParseEnvarUpdate(util::ByteReader& r) {
  EnvarUpdate m;
  auto id = r.U64();
  auto origin = r.Str();
  auto seq = r.U64();
  auto ts = r.U64();
  auto route = GetStrVec(r);
  auto key = r.Str();
  auto value = r.Str();
  auto version = r.U64();
  auto vorigin = r.Str();
  if (!id || !origin || !seq || !ts || !route || !key || !value || !version || !vorigin)
    return std::nullopt;
  m.req_id = *id;
  m.origin_host = std::move(*origin);
  m.bcast_seq = *seq;
  m.signed_ts = *ts;
  m.route = std::move(*route);
  m.key = std::move(*key);
  m.value = std::move(*value);
  m.version = *version;
  m.version_origin = std::move(*vorigin);
  return m;
}

std::optional<EnvarSync> ParseEnvarSync(util::ByteReader& r) {
  EnvarSync m;
  auto id = r.U64();
  auto n = r.U32();
  if (!id || !n) return std::nullopt;
  if (*n > r.remaining()) return std::nullopt;  // corrupt count
  m.entries.reserve(*n);
  for (uint32_t i = 0; i < *n; ++i) {
    EnvarEntry e;
    auto key = r.Str();
    auto value = r.Str();
    auto version = r.U64();
    auto origin = r.Str();
    if (!key || !value || !version || !origin) return std::nullopt;
    e.key = std::move(*key);
    e.value = std::move(*value);
    e.version = *version;
    e.origin = std::move(*origin);
    m.entries.push_back(std::move(e));
  }
  m.req_id = *id;
  return m;
}

std::optional<EnvarWatchReq> ParseEnvarWatchReq(util::ByteReader& r) {
  EnvarWatchReq m;
  auto id = r.U64();
  auto key = r.Str();
  auto spec = GetTriggerSpec(r);
  if (!id || !key || !spec) return std::nullopt;
  m.req_id = *id;
  m.key = std::move(*key);
  m.spec = std::move(*spec);
  return m;
}

std::optional<EnvarWatchResp> ParseEnvarWatchResp(util::ByteReader& r) {
  EnvarWatchResp m;
  auto id = r.U64();
  auto ok = r.Bool();
  auto err = r.Str();
  auto wid = r.U64();
  if (!id || !ok || !err || !wid) return std::nullopt;
  m.req_id = *id;
  m.ok = *ok;
  m.error = std::move(*err);
  m.watch_id = *wid;
  return m;
}

std::optional<Msg> ParseGroupMsg(uint8_t sub, util::ByteReader& r) {
  switch (sub) {
    case 0: return Lift(ParseGroupSpawnReq(r));
    case 1: return Lift(ParseGroupSpawnResp(r));
    case 2: return Lift(ParseGroupPartReq(r));
    case 3: return Lift(ParseGroupPartResp(r));
    case 4: return Lift(ParseGroupUndoReq(r));
    case 5: return Lift(ParseGroupAck(r));
    case 6: return Lift(ParseGroupExitNotify(r));
    case 7: return Lift(ParseGroupAddNotify(r));
    case 8: return Lift(ParseGroupSignalReq(r));
    case 9: return Lift(ParseGroupSignalResp(r));
    case 10: return Lift(ParseGroupJoinReq(r));
    case 11: return Lift(ParseGroupJoinResp(r));
    case 12: return Lift(ParseBarrierEnterReq(r));
    case 13: return Lift(ParseBarrierEnterResp(r));
    case 14: return Lift(ParseBarrierJoinReq(r));
    case 15: return Lift(ParseBarrierReleaseReq(r));
    case 16: return Lift(ParseEnvarSetReq(r));
    case 17: return Lift(ParseEnvarSetResp(r));
    case 18: return Lift(ParseEnvarGetReq(r));
    case 19: return Lift(ParseEnvarGetResp(r));
    case 20: return Lift(ParseEnvarUpdate(r));
    case 21: return Lift(ParseEnvarSync(r));
    case 22: return Lift(ParseEnvarWatchReq(r));
    case 23: return Lift(ParseEnvarWatchResp(r));
    default: return std::nullopt;
  }
}

}  // namespace

std::optional<Msg> Parse(WireView bytes) { return Parse(bytes, nullptr, nullptr); }

std::optional<Msg> Parse(WireView bytes, obs::TraceContext* trace) {
  return Parse(bytes, trace, nullptr);
}

std::optional<Msg> Parse(WireView bytes, obs::TraceContext* trace,
                         DeadlineStamp* stamp) {
  PPM_PROF_SCOPE("wire.decode");
  Metrics().frames_decoded->Inc();
  util::ByteReader r(bytes.data(), bytes.size());
  if (trace) *trace = obs::TraceContext{};
  if (stamp) *stamp = DeadlineStamp{};
  // Every frame must open with a complete, matching checksum header.  A
  // frame without one is corrupt too: its first byte is where the 0xF4
  // escape was, so accepting it would let a hit on that byte skip
  // verification.  Either way: reject and count, never deliver.
  auto esc = r.U8();
  auto lo = r.U8();
  auto hi = r.U8();
  const bool verified =
      esc && *esc == kChecksumHeaderTag && lo && hi &&
      static_cast<uint16_t>(*lo | (static_cast<uint16_t>(*hi) << 8)) ==
          util::Fletcher16(bytes.data() + kChecksumHeaderBytes,
                           bytes.size() - kChecksumHeaderBytes);
  if (!verified) {
    CorruptFramesCounter()->Inc();
    return std::nullopt;
  }
  auto tag = r.U8();
  if (!tag) return std::nullopt;
  if (*tag == kTraceHeaderTag) {
    auto tid = r.U64();
    auto sid = r.U64();
    auto psid = r.U64();
    if (!tid || !sid || !psid) return std::nullopt;
    if (trace) {
      trace->trace_id = *tid;
      trace->span_id = *sid;
      trace->parent_span = *psid;
    }
    tag = r.U8();
    if (!tag) return std::nullopt;
  }
  if (*tag == kDeadlineHeaderTag) {
    auto deadline = r.U64();
    auto idem = r.U64();
    if (!deadline || !idem) return std::nullopt;
    if (stamp) {
      stamp->deadline_us = *deadline;
      stamp->idem_token = *idem;
    }
    tag = r.U8();
    if (!tag) return std::nullopt;
  }
  std::optional<Msg> msg;
  switch (*tag) {
    case 0: msg = Lift(ParseHelloSibling(r)); break;
    case 1: msg = Lift(ParseHelloTool(r)); break;
    case 2: msg = Lift(ParseHelloAck(r)); break;
    case 3: msg = Lift(ParseHelloReject(r)); break;
    case 4: msg = Lift(ParseCreateReq(r)); break;
    case 5: msg = Lift(ParseCreateResp(r)); break;
    case 6: msg = Lift(ParseSignalReq(r)); break;
    case 7: msg = Lift(ParseSignalResp(r)); break;
    case 8: msg = Lift(ParseSnapshotReq(r)); break;
    case 9: msg = Lift(ParseSnapshotResp(r)); break;
    case 10: msg = Lift(ParseRusageReq(r)); break;
    case 11: msg = Lift(ParseRusageResp(r)); break;
    case 12: msg = Lift(ParseAdoptReq(r)); break;
    case 13: msg = Lift(ParseAdoptResp(r)); break;
    case 14: msg = Lift(ParseTraceReq(r)); break;
    case 15: msg = Lift(ParseTraceResp(r)); break;
    case 16: msg = Lift(ParseHistoryReq(r)); break;
    case 17: msg = Lift(ParseHistoryResp(r)); break;
    case 18: msg = Lift(ParseTriggerReq(r)); break;
    case 19: msg = Lift(ParseTriggerResp(r)); break;
    case 20: msg = Lift(ParseBecomeCcs(r)); break;
    case 21: msg = Lift(ParseCcsChanged(r)); break;
    case 22: msg = Lift(ParseProbe(r)); break;
    case 23: msg = Lift(ParseProbeAck(r)); break;
    case 24: msg = Lift(ParseFilesReq(r)); break;
    case 25: msg = Lift(ParseFilesResp(r)); break;
    case 26: msg = Lift(ParseMigrateReq(r)); break;
    case 27: msg = Lift(ParseMigrateResp(r)); break;
    case 28: msg = Lift(ParseRegisterChild(r)); break;
    case kStatMsgTag: {
      auto sub = r.U8();
      if (!sub) return std::nullopt;
      if (*sub == kStatReqSub) {
        msg = Lift(ParseStatReq(r));
      } else if (*sub == kStatRespSub) {
        msg = Lift(ParseStatResp(r));
      } else if (*sub == kStatSubscribeSub) {
        msg = Lift(ParseStatSubscribe(r));
      } else if (*sub == kStatDeltaSub) {
        msg = Lift(ParseStatDelta(r));
      } else if (*sub == kStatUnsubscribeSub) {
        msg = Lift(ParseStatUnsubscribe(r));
      } else {
        return std::nullopt;
      }
      break;
    }
    case kBusyMsgTag: {
      auto req_id = r.U64();
      auto error = r.Str();
      auto after = r.U64();
      if (!req_id || !error || !after) return std::nullopt;
      BusyResp busy;
      busy.req_id = *req_id;
      busy.error = std::move(*error);
      busy.retry_after_us = *after;
      msg = Msg{std::move(busy)};
      break;
    }
    case kGroupMsgTag: {
      auto sub = r.U8();
      if (!sub) return std::nullopt;
      msg = ParseGroupMsg(*sub, r);
      break;
    }
    default: return std::nullopt;
  }
  // A well-formed frame is consumed exactly; trailing bytes mean the
  // length fields inside were tampered with.
  if (msg && !r.AtEnd()) return std::nullopt;
  return msg;
}

const char* MsgTypeName(const Msg& msg) { return kMsgTypeNames[msg.index()]; }

const char* ClassifyWireFrame(const uint8_t* frame, size_t len) {
  if (len > 0 && frame[0] == kLpmRequestMagic) return "LpmRequest";
  if (len > 0 && frame[0] == kLpmResponseMagic) return "LpmResponse";
  size_t pos = 0;
  if (pos < len && frame[pos] == kChecksumHeaderTag) {
    pos += kChecksumHeaderBytes;
  }
  if (pos < len && frame[pos] == kTraceHeaderTag) {
    pos += kTraceHeaderBytes;
  }
  if (pos < len && frame[pos] == kDeadlineHeaderTag) {
    pos += kDeadlineHeaderBytes;
  }
  if (pos >= len) return "malformed";
  const uint8_t tag = frame[pos];
  if (tag == kStatMsgTag) {
    if (pos + 1 >= len) return "malformed";
    const uint8_t sub = frame[pos + 1];
    if (sub == kStatReqSub) return kMsgTypeNames[kPlainTagCount];
    if (sub == kStatRespSub) return kMsgTypeNames[kPlainTagCount + 1];
    if (sub == kStatSubscribeSub) return kMsgTypeNames[kStatStreamIndexBase];
    if (sub == kStatDeltaSub) return kMsgTypeNames[kStatStreamIndexBase + 1];
    if (sub == kStatUnsubscribeSub) return kMsgTypeNames[kStatStreamIndexBase + 2];
    return "unknown";
  }
  if (tag == kBusyMsgTag) return kMsgTypeNames[kPlainTagCount + 2];
  if (tag == kGroupMsgTag) {
    if (pos + 1 >= len) return "malformed";
    const uint8_t sub = frame[pos + 1];
    if (sub < kGroupSubCount) return kMsgTypeNames[kGroupIndexBase + sub];
    return "unknown";
  }
  if (tag < kPlainTagCount) return kMsgTypeNames[tag];
  return "unknown";
}

}  // namespace ppm::core
