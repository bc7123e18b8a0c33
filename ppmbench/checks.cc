#include "checks.h"

#include <cstdio>
#include <cstring>
#include <set>

namespace ppmbench {

namespace {

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Violations CheckSnapshot(const ppm::core::SnapshotResp& snap, size_t hosts,
                         const std::vector<std::string>& populated,
                         size_t procs_per_host) {
  Violations out;
  const std::set<std::string> covered(snap.forwarded_to.begin(), snap.forwarded_to.end());
  if (covered.size() != hosts) {
    out.push_back("snapshot: covered " + std::to_string(covered.size()) + " of " +
                  std::to_string(hosts) + " hosts");
  }
  std::map<std::string, size_t> per_host;
  for (const auto& rec : snap.records) ++per_host[rec.gpid.host];
  const size_t want = procs_per_host * populated.size();
  if (snap.records.size() != want) {
    out.push_back("snapshot: " + std::to_string(snap.records.size()) + " records, want " +
                  std::to_string(want));
  }
  for (const std::string& h : populated) {
    auto it = per_host.find(h);
    const size_t got = it == per_host.end() ? 0 : it->second;
    if (got != procs_per_host) {
      out.push_back("snapshot: host " + h + " returned " + std::to_string(got) +
                    " records, want " + std::to_string(procs_per_host));
      break;
    }
  }
  return out;
}

Violations CheckEnvars(const EnvarTables& tables,
                       const std::map<std::string, std::string>& last_set) {
  Violations out;
  for (const auto& [host, table] : tables) {
    for (const auto& [key, value] : last_set) {
      auto it = table.find(key);
      if (it == table.end()) {
        out.push_back("genv: " + host + " lacks " + key);
      } else if (it->second != value) {
        out.push_back("genv: " + host + " holds " + key + "=" + it->second +
                      ", last set " + value);
      }
    }
  }
  return out;
}

Violations CheckKernelEvents(const std::vector<KernelEventCount>& hosts) {
  Violations out;
  for (const KernelEventCount& h : hosts) {
    if (h.emitted != h.delivered + h.dropped) {
      out.push_back("kevents: " + h.host + " emitted " + std::to_string(h.emitted) +
                    " != delivered " + std::to_string(h.delivered) + " + dropped " +
                    std::to_string(h.dropped));
    }
  }
  return out;
}

Violations CheckOpcodePartition(const std::map<std::string, uint64_t>& counters) {
  uint64_t frames = 0, bytes = 0;
  const std::string prefix = "net.op.";
  for (const auto& [name, value] : counters) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.size() > 7 && name.compare(name.size() - 7, 7, ".frames") == 0) {
      frames += value;
    } else if (name.size() > 6 && name.compare(name.size() - 6, 6, ".bytes") == 0) {
      bytes += value;
    }
  }
  auto total = [&](const char* name) -> uint64_t {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };
  Violations out;
  if (frames != total("net.frames.sent")) {
    out.push_back("partition: net.op.*.frames sum " + std::to_string(frames) +
                  " != net.frames.sent " + std::to_string(total("net.frames.sent")));
  }
  if (bytes != total("net.bytes.sent")) {
    out.push_back("partition: net.op.*.bytes sum " + std::to_string(bytes) +
                  " != net.bytes.sent " + std::to_string(total("net.bytes.sent")));
  }
  return out;
}

Violations CheckSameRun(const Fingerprint& first, const Fingerprint& again) {
  Violations out;
  if (first.size() != again.size()) {
    out.push_back("determinism: " + std::to_string(first.size()) + " vs " +
                  std::to_string(again.size()) + " figures");
    return out;
  }
  for (size_t i = 0; i < first.size(); ++i) {
    // Bitwise: NaN never equals itself, and -0 is a different figure.
    const bool same =
        first[i].first == again[i].first &&
        std::memcmp(&first[i].second, &again[i].second, sizeof(double)) == 0;
    if (!same) {
      out.push_back("determinism: " + first[i].first + " = " + Num(first[i].second) +
                    ", then " + again[i].first + " = " + Num(again[i].second));
      break;
    }
  }
  return out;
}

Violations CheckSteadyOpenLoop(double first_quarter_p50_ms, double last_quarter_p50_ms,
                               double max_growth, uint64_t failed) {
  Violations out;
  if (failed != 0) {
    out.push_back("saturation: " + std::to_string(failed) +
                  " requests failed or were refused");
  }
  if (!(last_quarter_p50_ms <= first_quarter_p50_ms * max_growth)) {
    out.push_back("saturation: write p50 grew from " + Num(first_quarter_p50_ms) +
                  " ms in the first quarter to " + Num(last_quarter_p50_ms) +
                  " ms in the last");
  }
  return out;
}

Violations CheckGeneratorOnTime(uint64_t max_late_us) {
  Violations out;
  if (max_late_us != 0) {
    out.push_back("generator: an operation was issued " + std::to_string(max_late_us) +
                  " us after its scheduled time");
  }
  return out;
}

}  // namespace ppmbench
