// wire_differential_test.cc — locks the zero-copy codec to the wire
// format, byte for byte.  `ref` below retains the ByteWriter-based
// encoder the WireBuffer codec replaced, verbatim minus metrics; a
// seeded generator drives ~10k randomized frames covering every opcode,
// the STAT escape pair, and both header combinations (checksum only /
// checksum + trace) through both encoders and asserts the outputs are
// identical, plus frames spanning several blocks of the blocked checksum.
// Round trips then prove parse(encode(x)) == x through the owning and
// zero-copy paths alike.  Any intentional format change must
// update the reference encoder here — which is the point: the diff makes
// the wire change explicit instead of letting it ride along silently.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/wire.h"
#include "obs/trace.h"
#include "util/bytes.h"

namespace ppm::core {
namespace {

// --- reference encoder (retained pre-WireBuffer implementation) ------------

namespace ref {

uint16_t Fletcher16(const uint8_t* p, size_t n) {
  uint32_t lo = 0, hi = 0;
  for (size_t i = 0; i < n; ++i) {
    lo = (lo + p[i]) % 255;
    hi = (hi + lo) % 255;
  }
  return static_cast<uint16_t>((hi << 8) | lo);
}

std::vector<uint8_t> WrapChecksum(const std::vector<uint8_t>& body) {
  uint16_t ck = Fletcher16(body.data(), body.size());
  std::vector<uint8_t> out;
  out.reserve(body.size() + kChecksumHeaderBytes);
  out.push_back(kChecksumHeaderTag);
  out.push_back(static_cast<uint8_t>(ck & 0xff));
  out.push_back(static_cast<uint8_t>(ck >> 8));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

void PutGPid(util::ByteWriter& w, const GPid& g) {
  w.Str(g.host);
  w.I32(g.pid);
}

void PutStrVec(util::ByteWriter& w, const std::vector<std::string>& v) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (const auto& s : v) w.Str(s);
}

void PutProcRecord(util::ByteWriter& w, const ProcRecord& rec) {
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

void PutRusageRecord(util::ByteWriter& w, const RusageRecord& rec) {
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

void PutHistEvent(util::ByteWriter& w, const HistEvent& ev) {
  w.U64(ev.at);
  w.U8(static_cast<uint8_t>(ev.kind));
  w.I32(ev.pid);
  w.I32(ev.other);
  w.U8(static_cast<uint8_t>(ev.sig));
  w.I32(ev.status);
  w.Str(ev.detail);
}

void PutTriggerSpec(util::ByteWriter& w, const TriggerSpec& spec) {
  w.U8(static_cast<uint8_t>(spec.event_kind));
  w.I32(spec.subject_pid);
  w.U8(static_cast<uint8_t>(spec.action));
  w.U8(static_cast<uint8_t>(spec.action_signal));
  PutGPid(w, spec.action_target);
  w.Str(spec.migrate_dest);
  w.Str(spec.spawn_command);
  w.Str(spec.group);
}

void PutLpmStatRecord(util::ByteWriter& w, const LpmStatRecord& rec) {
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

void PutStatReq(util::ByteWriter& w, const StatReq& m) {
  w.U64(m.req_id);
  w.Str(m.origin_host);
  w.U64(m.bcast_seq);
  w.U64(m.signed_ts);
  PutStrVec(w, m.route);
  w.Bool(m.dump_flight);
}

void PutStatResp(util::ByteWriter& w, const StatResp& m) {
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

void PutStatDeltaRecord(util::ByteWriter& w, const StatDeltaRecord& rec) {
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

void EncodeMsg(util::ByteWriter& w, const Msg& msg) {
  if (const auto* sub = std::get_if<StatSubscribe>(&msg)) {
    w.U8(kStatMsgTag);
    w.U8(kStatSubscribeSub);
    w.U64(sub->req_id);
    w.Str(sub->origin_host);
    w.U64(sub->watch_id);
    w.U64(sub->bcast_seq);
    w.U64(sub->signed_ts);
    PutStrVec(w, sub->route);
    w.U64(sub->interval_us);
    return;
  }
  if (const auto* delta = std::get_if<StatDelta>(&msg)) {
    w.U8(kStatMsgTag);
    w.U8(kStatDeltaSub);
    w.U64(delta->req_id);
    w.Str(delta->origin_host);
    w.U64(delta->watch_id);
    w.U32(static_cast<uint32_t>(delta->records.size()));
    for (const auto& rec : delta->records) PutStatDeltaRecord(w, rec);
    return;
  }
  if (const auto* unsub = std::get_if<StatUnsubscribe>(&msg)) {
    w.U8(kStatMsgTag);
    w.U8(kStatUnsubscribeSub);
    w.U64(unsub->req_id);
    w.Str(unsub->origin_host);
    w.U64(unsub->watch_id);
    return;
  }
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
  if (const auto* busy = std::get_if<BusyResp>(&msg)) {
    w.U8(kBusyMsgTag);
    w.U64(busy->req_id);
    w.Str(busy->error);
    w.U64(busy->retry_after_us);
    return;
  }
  w.U8(static_cast<uint8_t>(msg.index()));
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
        }
      },
      msg);
}

std::vector<uint8_t> Serialize(const Msg& msg, const obs::TraceContext& trace,
                               const DeadlineStamp& stamp = {}) {
  util::ByteWriter w;
  if (trace.valid()) {
    w.U8(kTraceHeaderTag);
    w.U64(trace.trace_id);
    w.U64(trace.span_id);
    w.U64(trace.parent_span);
  }
  if (stamp.valid()) {
    w.U8(kDeadlineHeaderTag);
    w.U64(stamp.deadline_us);
    w.U64(stamp.idem_token);
  }
  EncodeMsg(w, msg);
  return WrapChecksum(w.Take());
}

std::vector<uint8_t> SerializeKernelEvent(const host::KernelEvent& ev) {
  util::ByteWriter w;
  w.U8(static_cast<uint8_t>(ev.kind));
  w.I32(ev.pid);
  w.I32(ev.other);
  w.U8(static_cast<uint8_t>(ev.sig));
  w.I32(ev.status);
  w.U64(ev.at);
  std::string detail = ev.detail;
  size_t header = w.size() + 4;
  size_t room = kKernelEventWireBytes - header;
  if (detail.size() > room) detail.resize(room);
  w.Str(detail);
  w.Pad(kKernelEventWireBytes - w.size());
  return w.Take();
}

}  // namespace ref

// --- seeded value generator -------------------------------------------------

class Gen {
 public:
  explicit Gen(uint64_t seed) : rng_(seed) {}

  uint64_t U64() { return rng_(); }
  uint32_t U32() { return static_cast<uint32_t>(rng_()); }
  int32_t I32() { return static_cast<int32_t>(rng_()); }
  uint8_t U8() { return static_cast<uint8_t>(rng_()); }
  bool B() { return (rng_() & 1) != 0; }
  size_t Size(size_t max) { return rng_() % (max + 1); }

  // Strings deliberately include NULs and the 0xF3..0xF7 escape bytes:
  // the length-prefixed format must be 8-bit clean.
  std::string Str(size_t max_len = 12) {
    static const char kSpice[] = {'\0', '\xF3', '\xF4', '\xF5', '\xF6', '\xF7', '\xFF'};
    std::string s;
    size_t n = Size(max_len);
    s.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (rng_() % 8 == 0) {
        s.push_back(kSpice[rng_() % sizeof(kSpice)]);
      } else {
        s.push_back(static_cast<char>('a' + rng_() % 26));
      }
    }
    return s;
  }

  GPid Gpid() { return GPid{Str(6), I32()}; }

  std::vector<std::string> StrVec(size_t max = 3) {
    std::vector<std::string> v(Size(max));
    for (auto& s : v) s = Str(8);
    return v;
  }

  host::Signal Sig() {
    static const host::Signal kSigs[] = {
        host::Signal::kSigHup,  host::Signal::kSigInt,  host::Signal::kSigKill,
        host::Signal::kSigUsr1, host::Signal::kSigTerm, host::Signal::kSigStop,
        host::Signal::kSigCont};
    return kSigs[rng_() % 7];
  }

  host::KEvent KKind() { return static_cast<host::KEvent>(rng_() % 10); }
  host::ProcState PState() { return static_cast<host::ProcState>(rng_() % 5); }

  ProcRecord Proc() {
    ProcRecord rec;
    rec.gpid = Gpid();
    rec.logical_parent = Gpid();
    rec.uid = I32();
    rec.command = Str();
    rec.state = PState();
    rec.exited = B();
    rec.start_time = U64();
    rec.end_time = U64();
    rec.cpu_time = static_cast<sim::SimDuration>(U64());
    return rec;
  }

  RusageRecord Rusage() {
    RusageRecord rec;
    rec.gpid = Gpid();
    rec.command = Str();
    rec.exit_status = I32();
    rec.killed_by_signal = B();
    rec.death_signal = Sig();
    rec.start_time = U64();
    rec.end_time = U64();
    rec.rusage.cpu_time = static_cast<sim::SimDuration>(U64());
    rec.rusage.messages_sent = U64();
    rec.rusage.messages_received = U64();
    rec.rusage.files_opened = U64();
    rec.rusage.max_rss_kb = U64();
    rec.rusage.forks = U64();
    return rec;
  }

  HistEvent Hist() {
    HistEvent ev;
    ev.at = U64();
    ev.kind = KKind();
    ev.pid = I32();
    ev.other = I32();
    ev.sig = Sig();
    ev.status = I32();
    ev.detail = Str();
    return ev;
  }

  TriggerSpec Trig() {
    TriggerSpec spec;
    spec.event_kind = KKind();
    spec.subject_pid = I32();
    spec.action = static_cast<TriggerAction>(U32() % 3);
    spec.action_signal = Sig();
    spec.action_target = Gpid();
    spec.migrate_dest = Str();
    spec.spawn_command = Str();
    spec.group = Str(6);
    return spec;
  }

  LpmStatRecord Stat() {
    LpmStatRecord rec;
    rec.host = Str(6);
    rec.user = Str(6);
    rec.uid = I32();
    rec.lpm_pid = I32();
    rec.mode = U8();
    rec.is_ccs = B();
    rec.ccs_host = Str(6);
    rec.recovery_rank = I32();
    rec.siblings = StrVec();
    rec.handlers = U32();
    rec.handlers_busy = U32();
    rec.queue_depth = U32();
    rec.queue_watermark = U32();
    rec.tool_circuits = U32();
    uint64_t* counters[] = {
        &rec.requests,          &rec.forwards,           &rec.kernel_events,
        &rec.handlers_created,  &rec.handler_reuses,     &rec.snapshots_served,
        &rec.bcasts_originated, &rec.bcast_duplicates,   &rec.triggers_fired,
        &rec.failures_detected, &rec.recoveries_started, &rec.request_timeouts,
        &rec.requests_shed,     &rec.busy_sent,          &rec.retries,
        &rec.deadline_expired,  &rec.dup_suppressed,
        &rec.eventlog_size,     &rec.eventlog_recorded,  &rec.eventlog_filtered,
        &rec.eventlog_dropped};
    for (uint64_t* c : counters) *c = U64();
    rec.breaker_open = U32();
    rec.dropped_by_pid.resize(Size(2));
    for (auto& d : rec.dropped_by_pid) d = PidDrop{I32(), U64()};
    rec.store_enabled = B();
    rec.journal_seq = U64();
    rec.journal_bytes = U64();
    rec.journal_pending = U32();
    rec.pmd_registry = U32();
    rec.pmd_requests = U64();
    rec.flight_records = U64();
    rec.flight_dumps = U64();
    rec.health = U8();
    rec.health_reasons = StrVec(2);
    rec.procs.resize(Size(2));
    for (auto& p : rec.procs) p = Proc();
    rec.groups.resize(Size(2));
    for (auto& g : rec.groups) g = GroupStatEntry{Str(6), U32(), U32()};
    rec.barriers.resize(Size(2));
    for (auto& b : rec.barriers) b = BarrierStatEntry{Str(6), U64(), U32(), U32()};
    rec.envars = U32();
    rec.envar_watchers = U32();
    rec.acct_cpu_us = U64();
    rec.acct_rusage_records = U64();
    return rec;
  }

  StatDeltaRecord DeltaRec() {
    StatDeltaRecord rec;
    rec.host = Str(6);
    rec.user = Str(6);
    rec.uid = I32();
    rec.seq = U64();
    rec.t_us = U64();
    rec.dt_us = U64();
    rec.d_kernel_events = U64();
    rec.d_requests = U64();
    rec.d_requests_shed = U64();
    rec.d_retries = U64();
    rec.d_journal_bytes = U64();
    rec.d_eventlog_recorded = U64();
    rec.d_acct_cpu_us = U64();
    rec.queue_depth = U32();
    rec.procs_live = U32();
    rec.health = U8();
    return rec;
  }

  host::KernelEvent KEvent(size_t max_detail) {
    host::KernelEvent ev;
    ev.kind = KKind();
    ev.pid = I32();
    ev.other = I32();
    ev.sig = Sig();
    ev.status = I32();
    ev.at = U64();
    ev.detail = Str(max_detail);
    return ev;
  }

  // One random message of the variant alternative `tag` (0..34, where
  // 29/30 are the STAT escape pair, 31 the BUSY escape, and 32..34 the
  // STAT subscription sub-ops).
  Msg MsgForTag(size_t tag) {
    switch (tag) {
      case 0: {
        HelloSibling m;
        m.user = Str();
        m.origin_host = Str(6);
        m.origin_lpm_pid = I32();
        m.token = U64();
        m.ccs_host = Str(6);
        return m;
      }
      case 1: {
        HelloTool m;
        m.user = Str();
        m.uid = I32();
        m.tool_name = Str();
        return m;
      }
      case 2: {
        HelloAck m;
        m.host = Str(6);
        m.lpm_pid = I32();
        m.ccs_host = Str(6);
        return m;
      }
      case 3: {
        HelloReject m;
        m.reason = Str(20);
        return m;
      }
      case 4: {
        CreateReq m;
        m.req_id = U64();
        m.target_host = Str(6);
        m.command = Str();
        m.logical_parent = Gpid();
        m.initially_running = B();
        m.trace_mask = U32();
        return m;
      }
      case 5: {
        CreateResp m;
        m.req_id = U64();
        m.ok = B();
        m.error = Str();
        m.gpid = Gpid();
        return m;
      }
      case 6: {
        SignalReq m;
        m.req_id = U64();
        m.target = Gpid();
        m.sig = Sig();
        return m;
      }
      case 7: {
        SignalResp m;
        m.req_id = U64();
        m.ok = B();
        m.error = Str();
        return m;
      }
      case 8: {
        SnapshotReq m;
        m.req_id = U64();
        m.origin_host = Str(6);
        m.bcast_seq = U64();
        m.signed_ts = U64();
        m.route = StrVec();
        return m;
      }
      case 9: {
        SnapshotResp m;
        m.req_id = U64();
        m.origin_host = Str(6);
        m.bcast_seq = U64();
        m.replier_host = Str(6);
        m.forwarded_to = StrVec();
        m.route = StrVec();
        m.route_index = Size(4);
        m.records.resize(Size(3));
        for (auto& rec : m.records) rec = Proc();
        return m;
      }
      case 10: {
        RusageReq m;
        m.req_id = U64();
        m.target_host = Str(6);
        return m;
      }
      case 11: {
        RusageResp m;
        m.req_id = U64();
        m.ok = B();
        m.error = Str();
        m.records.resize(Size(3));
        for (auto& rec : m.records) rec = Rusage();
        return m;
      }
      case 12: {
        AdoptReq m;
        m.req_id = U64();
        m.target = Gpid();
        m.trace_mask = U32();
        return m;
      }
      case 13: {
        AdoptResp m;
        m.req_id = U64();
        m.ok = B();
        m.error = Str();
        m.adopted_pids.resize(Size(4));
        for (auto& pid : m.adopted_pids) pid = I32();
        return m;
      }
      case 14: {
        TraceReq m;
        m.req_id = U64();
        m.target = Gpid();
        m.trace_mask = U32();
        return m;
      }
      case 15: {
        TraceResp m;
        m.req_id = U64();
        m.ok = B();
        m.error = Str();
        return m;
      }
      case 16: {
        HistoryReq m;
        m.req_id = U64();
        m.target_host = Str(6);
        m.pid_filter = I32();
        m.max_events = U32();
        return m;
      }
      case 17: {
        HistoryResp m;
        m.req_id = U64();
        m.ok = B();
        m.error = Str();
        m.events.resize(Size(3));
        for (auto& ev : m.events) ev = Hist();
        return m;
      }
      case 18: {
        TriggerReq m;
        m.req_id = U64();
        m.target_host = Str(6);
        m.spec = Trig();
        return m;
      }
      case 19: {
        TriggerResp m;
        m.req_id = U64();
        m.ok = B();
        m.error = Str();
        m.trigger_id = U64();
        return m;
      }
      case 20: {
        BecomeCcs m;
        m.requested_by = Str(6);
        return m;
      }
      case 21: {
        CcsChanged m;
        m.new_ccs = Str(6);
        return m;
      }
      case 22: {
        Probe m;
        m.req_id = U64();
        return m;
      }
      case 23: {
        ProbeAck m;
        m.req_id = U64();
        m.host = Str(6);
        m.is_ccs = B();
        return m;
      }
      case 24: {
        FilesReq m;
        m.req_id = U64();
        m.target = Gpid();
        return m;
      }
      case 25: {
        FilesResp m;
        m.req_id = U64();
        m.ok = B();
        m.error = Str();
        m.files.resize(Size(3));
        for (auto& f : m.files) f = FileRecord{I32(), Str(), Str(2)};
        return m;
      }
      case 26: {
        MigrateReq m;
        m.req_id = U64();
        m.target = Gpid();
        m.dest_host = Str(6);
        return m;
      }
      case 27: {
        MigrateResp m;
        m.req_id = U64();
        m.ok = B();
        m.error = Str();
        m.new_gpid = Gpid();
        return m;
      }
      case 28: {
        RegisterChild m;
        m.parent_pid = I32();
        m.child = Gpid();
        return m;
      }
      case 29: {
        StatReq m;
        m.req_id = U64();
        m.origin_host = Str(6);
        m.bcast_seq = U64();
        m.signed_ts = U64();
        m.route = StrVec();
        m.dump_flight = B();
        return m;
      }
      case 30: {
        StatResp m;
        m.req_id = U64();
        m.origin_host = Str(6);
        m.bcast_seq = U64();
        m.replier_host = Str(6);
        m.forwarded_to = StrVec();
        m.route = StrVec();
        m.route_index = Size(4);
        m.records.resize(Size(2));
        for (auto& rec : m.records) rec = Stat();
        return m;
      }
      case 32: {
        StatSubscribe m;
        m.req_id = U64();
        m.origin_host = Str(6);
        m.watch_id = U64();
        m.bcast_seq = U64();
        m.signed_ts = U64();
        m.route = StrVec();
        m.interval_us = U64();
        return m;
      }
      case 33: {
        StatDelta m;
        m.req_id = U64();
        m.origin_host = Str(6);
        m.watch_id = U64();
        m.records.resize(Size(3));
        for (auto& rec : m.records) rec = DeltaRec();
        return m;
      }
      case 34: {
        StatUnsubscribe m;
        m.req_id = U64();
        m.origin_host = Str(6);
        m.watch_id = U64();
        return m;
      }
      default: {
        BusyResp m;
        m.req_id = U64();
        m.error = Str(20);
        m.retry_after_us = U64();
        return m;
      }
    }
  }

  obs::TraceContext Trace(bool valid) {
    obs::TraceContext t;
    if (valid) {
      t.trace_id = U64() | 1;  // nonzero: valid()
      t.span_id = U64();
      t.parent_span = U64();
    }
    return t;
  }

  DeadlineStamp Stamp(bool valid) {
    DeadlineStamp s;
    if (valid) {
      s.deadline_us = U64() | 1;  // nonzero: valid()
      s.idem_token = U64();
    }
    return s;
  }

 private:
  std::mt19937_64 rng_;
};

constexpr size_t kTagCount = 35;     // 29 plain + STAT family (5) + BUSY escape
constexpr size_t kItersPerTag = 160;  // x35 tags x header combos ≈ 11k frames

// Every opcode, randomized payloads, all four header combinations
// (trace on/off x deadline on/off): the new encoder's bytes must equal
// the reference encoder's, and both parse paths (owning vector and
// zero-copy view) must round-trip the value, the trace header, and the
// deadline stamp.
TEST(WireDifferential, EncoderMatchesReferenceAllOpcodes) {
  Gen gen(0x9e3779b97f4a7c15ull);
  WireBuffer buf;
  for (size_t tag = 0; tag < kTagCount; ++tag) {
    for (size_t iter = 0; iter < kItersPerTag; ++iter) {
      const Msg msg = gen.MsgForTag(tag);
      const obs::TraceContext trace = gen.Trace(/*valid=*/iter % 2 == 0);
      const DeadlineStamp stamp = gen.Stamp(/*valid=*/iter % 4 < 2);

      const std::vector<uint8_t> want = ref::Serialize(msg, trace, stamp);
      Serialize(msg, trace, stamp, buf);
      ASSERT_EQ(want, buf.CopyOut()) << "tag " << tag << " iter " << iter;

      // The owning wrapper is the same codec behind a copy.
      ASSERT_EQ(want, stamp.valid()    ? Serialize(msg, trace, stamp)
                      : trace.valid()  ? Serialize(msg, trace)
                                       : Serialize(msg))
          << "tag " << tag << " iter " << iter;

      // Round trip, zero-copy path.
      obs::TraceContext got_trace;
      DeadlineStamp got_stamp;
      auto parsed = Parse(WireView(buf), &got_trace, &got_stamp);
      ASSERT_TRUE(parsed.has_value()) << "tag " << tag << " iter " << iter;
      ASSERT_TRUE(msg == *parsed) << "tag " << tag << " iter " << iter;
      EXPECT_EQ(trace.valid() ? trace.trace_id : 0u, got_trace.trace_id);
      EXPECT_EQ(trace.valid() ? trace.span_id : 0u, got_trace.span_id);
      EXPECT_EQ(stamp.valid() ? stamp.deadline_us : 0u, got_stamp.deadline_us);
      EXPECT_EQ(stamp.valid() ? stamp.idem_token : 0u, got_stamp.idem_token);

      // Round trip, owning path.
      auto parsed2 = Parse(want);
      ASSERT_TRUE(parsed2.has_value());
      ASSERT_TRUE(msg == *parsed2);
    }
  }
}

// The 112-byte kernel event frame: fixed-offset encoder vs the
// field-by-field reference, including details long enough to truncate.
TEST(WireDifferential, KernelEventMatchesReference) {
  Gen gen(0xc0ffee1234567890ull);
  WireBuffer buf;
  constexpr size_t kDetailRoom = 86;  // kKernelEventWireBytes - 26-byte header
  for (size_t iter = 0; iter < 10000; ++iter) {
    // A third of the events carry details past the wire's room so the
    // truncation path is compared too.
    const size_t max_detail = iter % 3 == 0 ? kDetailRoom + 14 : kDetailRoom;
    const host::KernelEvent ev = gen.KEvent(max_detail);

    const std::vector<uint8_t> want = ref::SerializeKernelEvent(ev);
    ASSERT_EQ(want.size(), kKernelEventWireBytes);
    SerializeKernelEvent(ev, buf);
    ASSERT_EQ(want, buf.CopyOut()) << "iter " << iter;
    ASSERT_EQ(want, SerializeKernelEvent(ev)) << "iter " << iter;

    auto parsed = ParseKernelEvent(WireView(buf));
    ASSERT_TRUE(parsed.has_value());
    host::KernelEvent expect = ev;
    if (expect.detail.size() > kDetailRoom) expect.detail.resize(kDetailRoom);
    ASSERT_TRUE(expect == *parsed) << "iter " << iter;
  }
}

// A reused WireBuffer must produce the same bytes as a fresh one — the
// whole point of the caller-owned buffer is reuse without reallocation,
// and stale state leaking between frames would corrupt the stream.
TEST(WireDifferential, BufferReuseIsStateless) {
  Gen gen(0xfeedface0badf00dull);
  WireBuffer reused;
  for (size_t iter = 0; iter < 500; ++iter) {
    const Msg msg = gen.MsgForTag(iter % kTagCount);
    const obs::TraceContext trace = gen.Trace(iter % 2 == 0);
    const DeadlineStamp stamp = gen.Stamp(iter % 4 < 2);
    WireBuffer fresh;
    Serialize(msg, trace, stamp, reused);
    Serialize(msg, trace, stamp, fresh);
    ASSERT_EQ(fresh.CopyOut(), reused.CopyOut()) << "iter " << iter;
  }
}

// Frames longer than one checksum block (util::kFletcher16Block bytes)
// and than two, where the blocked checksum reduces its sums mid-frame:
// snapshot replies with hundreds of process records, as a wide
// collective returns them, and STAT replies with dozens of manager
// records.  Each must match the reference encoder (and so its bytewise
// checksum) byte for byte and round-trip through Parse.
TEST(WireDifferential, MultiBlockFramesMatchReference) {
  Gen gen(0x16a8'16a8'16a8'16a8ull);
  WireBuffer buf;
  size_t largest = 0;
  size_t multi_block = 0;
  for (size_t records = 50; records <= 650; records += 25) {
    SnapshotResp snap;
    snap.req_id = gen.U64();
    snap.origin_host = gen.Str(6);
    snap.replier_host = gen.Str(6);
    snap.route = gen.StrVec();
    snap.records.resize(records);
    for (auto& rec : snap.records) rec = gen.Proc();
    StatResp stat;
    stat.req_id = gen.U64();
    stat.origin_host = gen.Str(6);
    stat.route = gen.StrVec();
    stat.records.resize(records / 10);
    for (auto& rec : stat.records) rec = gen.Stat();
    for (const Msg& msg : {Msg{snap}, Msg{stat}}) {
      const obs::TraceContext trace = gen.Trace(records % 50 == 0);
      const DeadlineStamp stamp = gen.Stamp(records % 100 == 0);
      const std::vector<uint8_t> want = ref::Serialize(msg, trace, stamp);
      Serialize(msg, trace, stamp, buf);
      ASSERT_EQ(want, buf.CopyOut()) << MsgTypeName(msg) << " records " << records;
      auto parsed = Parse(WireView(buf));
      ASSERT_TRUE(parsed.has_value()) << MsgTypeName(msg) << " records " << records;
      ASSERT_TRUE(msg == *parsed) << MsgTypeName(msg) << " records " << records;
      largest = std::max(largest, want.size());
      if (want.size() > util::kFletcher16Block + kChecksumHeaderBytes) ++multi_block;
    }
  }
  EXPECT_GT(largest, 2 * util::kFletcher16Block + kChecksumHeaderBytes);
  EXPECT_GT(multi_block, 10u);
}

}  // namespace
}  // namespace ppm::core
