// ppmbench — the repository benchmark.
//
//   ppmbench --workload <kmsg|admin|collective> --seed <n> --seconds <s>
//            --trace <0|1> [--trace-dir <dir>]
//   ppmbench --list-metrics
//
// One single-threaded process.  It repeats the workload at the given seed
// until the timed windows add up to --seconds (at least three times),
// checks every repetition and that all of them agree on every exact
// figure, runs the paper-fidelity probes once, and prints a summary
// followed, as its last line, by one JSON object:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// and traced repetitions and reports the per-layer metrics, writing the
// traced repetitions' spans to --trace-dir.
// Exit status: 0 when every check passed, 1 when one failed, 2 on usage.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "paper.h"
#include "recorder.h"
#include "workloads.h"

namespace ppmbench {
namespace {

// A latency for a request that never completed enters the percentiles as
// +inf; JSON has no infinity, so it prints as this sentinel.
constexpr double kInfiniteMs = 1e9;

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;  // "lower" or "higher"
};

// End-to-end metrics (--trace 0).  fail_ratio and paper_err_pct are 0 at
// the shipped rates and on calibrated tables, and a gate needs figures
// that are never 0, so the gated forms are their complements.
const std::vector<MetricDef>& EndToEnd() {
  static const std::vector<MetricDef> defs = {
      {"ops_per_s", "ops/s", "higher"},   {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MiB", "lower"},    {"read_p50_ms", "ms", "lower"},
      {"read_p99_ms", "ms", "lower"},     {"write_p50_ms", "ms", "lower"},
      {"write_p99_ms", "ms", "lower"},    {"ok_ratio", "fraction", "higher"},
      {"bytes_per_op", "B/op", "lower"},  {"paper_fit_pct", "%", "higher"},
  };
  return defs;
}

// Per-layer metrics (--trace 1).
const std::vector<MetricDef>& PerLayer() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"fail_ratio", "fraction", "lower"},
        {"paper_err_pct", "%", "lower"},
        {"samples.read", "count", "higher"},
        {"samples.write", "count", "higher"},
        {"sim.events_per_op", "events/op", "lower"},
        {"sim.ns_per_event", "ns", "lower"},
        {"sim.queue_peak", "count", "lower"},
        {"host.kevents_per_op", "events/op", "lower"},
        {"host.kernel_call_ns", "ns", "lower"},
        {"host.kevents_dropped", "count", "lower"},
        {"wire.kevent.encode_ns", "ns", "lower"},
        {"wire.kevent.decode_ns", "ns", "lower"},
        {"wire.msg.encode_ns", "ns", "lower"},
        {"wire.msg.decode_ns", "ns", "lower"},
        {"wire.frames_per_op", "frames/op", "lower"},
        {"wire.hdr_bytes_per_frame", "B/frame", "lower"},
        {"net.frames_per_op", "frames/op", "lower"},
        {"net.hops_per_frame", "hops/frame", "lower"},
        {"net.conns_opened_per_op", "conns/op", "lower"},
        {"net.frames_dropped", "count", "lower"},
        {"lpm.requests_per_op", "reqs/op", "lower"},
        {"lpm.forwards_per_op", "reqs/op", "lower"},
        {"lpm.queue_peak", "count", "lower"},
        {"lpm.cpu_ms_per_op", "ms/op", "lower"},
        {"lpm.handler_reuse_ratio", "fraction", "higher"},
        {"lpm.shed", "count", "lower"},
        {"lpm.retries", "count", "lower"},
        {"lpm.deadline_expired", "count", "lower"},
        {"lpm.eventlog_dropped", "count", "lower"},
        {"bcast.frames_per_collective", "frames/op", "lower"},
        {"bcast.dup_ratio", "dups/op", "lower"},
        {"bcast.hosts_covered", "hosts", "higher"},
        {"group.barrier_p50_ms", "ms", "lower"},
        {"group.barrier_p99_ms", "ms", "lower"},
        {"group.frames_per_barrier", "frames/op", "lower"},
        {"group.frames_per_genv_set", "frames/op", "lower"},
        {"pmd.requests_per_session", "reqs/op", "lower"},
        {"pmd.lookup_hit_ratio", "fraction", "higher"},
        {"pmd.lpms_created", "count", "lower"},
        {"inetd.dispatches", "count", "lower"},
        {"store.appends_per_op", "appends/op", "lower"},
        {"store.append_bytes_per_op", "B/op", "lower"},
        {"store.fsyncs_per_op", "fsyncs/op", "lower"},
        {"store.checkpoints", "count", "lower"},
        {"obs.trace_overhead_pct", "%", "lower"},
        {"obs.prof.attribution_pct", "%", "higher"},
        {"mem.allocs_per_op", "allocs/op", "lower"},
        {"mem.alloc_bytes_per_op", "B/op", "lower"},
        {"sat.write_p50_q1_ms", "ms", "lower"},
        {"sat.write_p50_q4_ms", "ms", "lower"},
        {"gen.max_late_us", "us", "lower"},
        {"wall.ops_per_s", "ops/s", "higher"},
        {"wall.ref_kernel_ms", "ms", "lower"},
    };
    for (int i = 0; i < kOpCount; ++i) {
      const std::string base = std::string("tools.") + OpName(static_cast<Op>(i));
      d.push_back({base + ".p50_ms", "ms", "lower"});
      d.push_back({base + ".p99_ms", "ms", "lower"});
    }
    for (const std::string& layer : ProfLayers()) {
      d.push_back({"obs.self_ns." + layer, "ns/op", "lower"});
    }
    return d;
  }();
  return defs;
}

// The paper cells are per-layer metrics too; their names come from the
// probes, so they are listed by running them (cheap: a few ms).
struct Paper {
  std::vector<PaperCell> t1, t2, t3;
};
Paper RunPaper() { return {RunTable1(), RunTable2(), RunTable3()}; }

// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& xs) { return Quantile(xs, 0.5); }

// The process's own peak resident memory: VmHWM of /proc/self/status.
// getrusage's ru_maxrss is no use here, because Linux carries it across
// exec, so it would report the larger launcher (run.py's Python) instead.
double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = v > 0 ? kInfiniteMs : -kInfiniteMs;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Fingerprint FingerprintOf(const RepResult& r) {
  Fingerprint fp(r.exact.begin(), r.exact.end());
  fp.emplace_back("attempted", static_cast<double>(r.attempted));
  fp.emplace_back("failed", static_cast<double>(r.failed));
  return fp;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_dir = ".";
  bool list = false;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--list-metrics") {
      a.list = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (key == "--trace") {
      a.trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (key == "--trace-dir") {
      a.trace_dir = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return a.list || (!a.workload.empty() && a.seconds > 0 &&
                    (a.trace == 0 || a.trace == 1));
}

void ListMetrics() {
  for (const MetricDef& m : EndToEnd()) {
    std::printf("end_to_end %s %s %s\n", m.name.c_str(), m.unit.c_str(),
                m.better.c_str());
  }
  for (const MetricDef& m : PerLayer()) {
    std::printf("per_layer %s %s %s\n", m.name.c_str(), m.unit.c_str(), m.better.c_str());
  }
  const Paper p = RunPaper();
  for (const auto* cells : {&p.t1, &p.t2, &p.t3}) {
    for (const PaperCell& c : *cells) {
      std::printf("per_layer %s ms lower\n", c.name.c_str());
    }
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: ppmbench --workload <kmsg|admin|collective> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n"
                 "       ppmbench --list-metrics\n");
    return 2;
  }
  if (args.list) {
    ListMetrics();
    return 0;
  }
  const auto workload = ParseWorkload(args.workload);
  if (!workload) {
    std::fprintf(stderr, "ppmbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // --- repetitions ------------------------------------------------------------
  SpanLog spans(1 << 16);
  std::vector<RepResult> plain, traced;
  Violations violations;
  double timed_s = 0;
  double peak_rss_mb = 0;
  constexpr size_t kMinReps = 3;
  constexpr size_t kMaxReps = 200;
  for (size_t rep = 0; rep < kMaxReps; ++rep) {
    const bool enough_plain = plain.size() >= kMinReps;
    const bool enough_traced = args.trace == 0 || traced.size() >= kMinReps;
    if (timed_s >= args.seconds && enough_plain && enough_traced) break;
    RepOptions opt;
    opt.seed = args.seed;
    // A traced run alternates untraced and traced repetitions, so the
    // tracing overhead is measured under the same conditions.
    opt.traced = args.trace == 1 && rep % 2 == 1;
    opt.spans = &spans;
    spans.set_on(opt.traced);
    RepResult r = RunRep(*workload, opt);
    spans.set_on(false);
    // Hand the torn-down cluster's heap back, so the next repetition does
    // not start on the free heap this one left.  Its size and layout depend
    // on the seed, and without the trim admin's peak_rss_mb spread 0.042
    // over ten seeds instead of about 0.01.
    malloc_trim(0);
    timed_s += r.window_s;
    std::printf("rep %zu%s: set-up %.4f s (ref %.4f s), window %.4f s (ref %.4f s), "
                "kernel median %.3f ms, %.0f ops, %llu allocs\n",
                rep, opt.traced ? " (traced)" : "", r.setup_s, r.setup_ref_s, r.window_s,
                r.window_ref_s, r.kernel_ms, r.ops, static_cast<unsigned long long>(r.allocs));
    for (const std::string& v : r.violations) {
      violations.push_back("rep " + std::to_string(rep) + ": " + v);
    }
    if (!r.violations.empty() && r.window_s == 0) break;  // set-up failed
    (opt.traced ? traced : plain).push_back(std::move(r));
    // The peak grows slowly with every repetition (heap fragmentation and
    // process-global state), so it is read after a fixed number of them:
    // a faster host must not read as a larger footprint.
    if (rep + 1 == kMinReps) peak_rss_mb = PeakRssMiB();
  }
  if (plain.empty()) {
    for (const std::string& v : violations) {
      std::fprintf(stderr, "VIOLATION %s\n", v.c_str());
    }
    return 1;
  }
  // Two runs at one seed give identical virtual metrics and counts.
  const Fingerprint first = FingerprintOf(plain.front());
  for (const auto* reps : {&plain, &traced}) {
    for (const RepResult& r : *reps) {
      for (const std::string& v : CheckSameRun(first, FingerprintOf(r))) {
        violations.push_back(v);
      }
    }
  }

  // p99 needs at least ten samples beyond it in each class.
  for (const char* cls : {"samples.read", "samples.write"}) {
    if (plain.front().exact.at(cls) < 1000) {
      violations.push_back(std::string("sizing: fewer than 1000 ") + cls);
    }
  }

  // --- paper probes (outside the timed windows and set-up) ------------------------
  const Paper paper = RunPaper();
  const std::vector<PaperCell>& table = *workload == Workload::kKmsg    ? paper.t1
                                        : *workload == Workload::kAdmin ? paper.t2
                                                                        : paper.t3;
  for (const auto* cells : {&paper.t1, &paper.t2, &paper.t3}) {
    for (const PaperCell& c : *cells) {
      if (c.measured < 0) violations.push_back("paper probe failed: " + c.name);
    }
  }
  const double paper_err = MeanErrPct(table);

  // --- figures -------------------------------------------------------------------------
  const RepResult& exact = plain.front();
  // Rates per second of reference time (speed.h), or of wall time.
  auto rates = [](const std::vector<RepResult>& reps, bool wall = false) {
    std::vector<double> out;
    for (const RepResult& r : reps) {
      const double s = wall ? r.window_s : r.window_ref_s;
      out.push_back(s > 0 ? r.ops / s : 0);
    }
    return out;
  };
  const double fail_ratio = exact.exact.at("fail_ratio");

  std::map<std::string, double> values;
  if (args.trace == 0) {
    // Both wall-clock figures are in reference time, which takes the
    // host's drifting speed out of them, and are medians over the
    // repetitions.
    values["ops_per_s"] = Median(rates(plain));
    std::vector<double> setups;
    for (const RepResult& r : plain) setups.push_back(r.setup_ref_s);
    values["setup_s"] = Median(setups);
    values["peak_rss_mb"] = peak_rss_mb;
    for (const char* k : {"read_p50_ms", "read_p99_ms", "write_p50_ms", "write_p99_ms",
                          "bytes_per_op"}) {
      values[k] = exact.exact.at(k);
    }
    values["ok_ratio"] = 1.0 - fail_ratio;
    values["paper_fit_pct"] = 100.0 - paper_err;
  } else {
    for (const MetricDef& m : PerLayer()) {
      auto it = exact.exact.find(m.name);
      if (it != exact.exact.end()) values[m.name] = it->second;
    }
    if (!traced.empty()) {
      for (const auto& [name, v] : traced.front().wall) {
        std::vector<double> xs;
        for (const RepResult& r : traced) xs.push_back(r.wall.at(name));
        values[name] = Median(xs);
      }
    }
    values["paper_err_pct"] = paper_err;
    values["wall.ops_per_s"] = Median(rates(plain, /*wall=*/true));
    std::vector<double> kernel_ms;
    for (const RepResult& r : plain) kernel_ms.push_back(r.kernel_ms);
    values["wall.ref_kernel_ms"] = Median(kernel_ms);
    const double plain_rate = Median(rates(plain));
    const double traced_rate = Median(rates(traced));
    values["obs.trace_overhead_pct"] =
        traced_rate > 0 ? (plain_rate / traced_rate - 1.0) * 100.0 : 0;
    // Heap counts come from the second untraced repetition.  The first
    // also pays the process's one-time registrations, and later ones
    // differ by a few allocations because the program's process-global
    // span tracer keeps its storage across clusters.  The second has the
    // same history in every run, so its count is exact for a seed.
    const RepResult& counted = plain.size() > 1 ? plain[1] : plain[0];
    values["mem.allocs_per_op"] =
        counted.ops > 0 ? static_cast<double>(counted.allocs) / counted.ops : 0;
    values["mem.alloc_bytes_per_op"] =
        counted.ops > 0 ? static_cast<double>(counted.alloc_bytes) / counted.ops : 0;
    for (const auto* cells : {&paper.t1, &paper.t2, &paper.t3}) {
      for (const PaperCell& c : *cells) values[c.name] = c.measured;
    }
    const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".spans.jsonl";
    if (!spans.WriteJsonLines(path)) {
      violations.push_back("trace: cannot write " + path);
    }
    std::printf("spans: %zu kept, %llu past capacity, written to %s\n", spans.size(),
                static_cast<unsigned long long>(spans.dropped()), path.c_str());
  }

  // --- report ---------------------------------------------------------------
  std::map<std::string, std::string> units;
  for (const MetricDef& m : EndToEnd()) units[m.name] = m.unit;
  for (const MetricDef& m : PerLayer()) units[m.name] = m.unit;
  for (const auto* cells : {&paper.t1, &paper.t2, &paper.t3}) {
    for (const PaperCell& c : *cells) units[c.name] = "ms";
  }
  std::printf("workload %s seed %llu: %zu untraced + %zu traced repetitions, "
              "%.3f s timed\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              plain.size(), traced.size(), timed_s);
  std::printf("samples: %.0f reads, %.0f writes per repetition; "
              "%llu attempted, %llu failed\n",
              exact.exact.at("samples.read"), exact.exact.at("samples.write"),
              static_cast<unsigned long long>(exact.attempted),
              static_cast<unsigned long long>(exact.failed));
  for (const PaperCell& c : table) {
    std::printf("  %-30s measured %9.3f  paper %s\n", c.name.c_str(), c.measured,
                c.paper > 0 ? Num(c.paper).c_str() : "-");
  }
  for (const auto& [name, v] : values) {
    std::printf("  %-34s %16.6f %s\n", name.c_str(), v, units[name].c_str());
  }
  for (const std::string& v : violations) std::printf("VIOLATION %s\n", v.c_str());

  std::string json = "{\"correct\": ";
  json += violations.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(exact.attempted);
  json += ", \"failed\": " + std::to_string(exact.failed);
  json += ", \"metrics\": {";
  bool first_metric = true;
  for (const auto& [name, v] : values) {
    if (!first_metric) json += ", ";
    first_metric = false;
    json += "\"";
    ppm::obs::json::AppendEscaped(json, name);
    json += "\": {\"value\": " + Num(v) + ", \"unit\": \"";
    ppm::obs::json::AppendEscaped(json, units[name]);
    json += "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return violations.empty() ? 0 : 1;
}

}  // namespace
}  // namespace ppmbench

int main(int argc, char** argv) { return ppmbench::Main(argc, argv); }
