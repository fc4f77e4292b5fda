// dqme_bench — the repository benchmark: six workloads across the simulator,
// the real-threads backend and the model checker, each assembled from the
// public constructors of the layers (see workloads.h and BENCHMARK.md).
//
//   dqme_bench --workload=W[,W...|all] --seed=S [--seconds=X] [--traced]
//              [--repeat=K] [--json[=PATH]] [--trace-out=PATH] [--quick]
//              [--check]
//
// One run of a workload repeats fixed-size reps until --seconds have passed
// (and at least a minimum number of reps ran), then reports medians over the
// reps. Untraced runs report the end-to-end metrics. --traced alternates
// untraced reps with reps whose seams carry the forwarding decorators of
// trace.h and reports the per-layer metrics, including the tracing overhead
// measured against the interleaved untraced reps. --repeat=K performs K runs
// per workload, alternating the workload order between rounds, and prints
// the median and quartiles of every metric.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 = every output check passed, 1 = a check failed, 2 = usage.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace {

using namespace dqme;
using namespace dqme::perf;

constexpr uint8_t kSim = static_cast<uint8_t>(Family::kSim);
constexpr uint8_t kRt = static_cast<uint8_t>(Family::kRt);
constexpr uint8_t kEx = static_cast<uint8_t>(Family::kExplore);
constexpr uint8_t kAll = kSim | kRt | kEx;

// Where a metric's per-run value comes from.
enum class Source : uint8_t {
  kPlain,    // median over the untraced reps
  kTraced,   // median over the traced reps (--traced only)
  kDerived,  // computed from the reps' window/setup fields
};

// Every metric dqme_bench reports. A metric is measured on the workload
// families in `families` and reads 0 ("layer not exercised") on the others,
// so every workload reports the same names.
struct MetricDef {
  std::string name;
  const char* unit;
  const char* better;
  bool layer;  // per-layer (else end-to-end)
  uint8_t families;
  Source source;
};

std::vector<MetricDef> metric_defs() {
  std::vector<MetricDef> d = {
      // End to end.
      {"setup_s", "s", "lower", false, kAll, Source::kDerived},
      {"ops_per_s", "1/s", "higher", false, kAll, Source::kDerived},
      {"cpu_us_per_op", "us", "lower", false, kAll, Source::kDerived},
      {"peak_rss_mb", "MB", "lower", false, kAll, Source::kDerived},
      {"steps_per_op", "count", "lower", false, kAll, Source::kPlain},
      {"failed_frac", "frac", "lower", false, kAll, Source::kDerived},
      {"rt.acquire_p50_us", "us", "lower", false, kRt, Source::kPlain},
      {"rt.acquire_p99_us", "us", "lower", false, kRt, Source::kPlain},
      {"rt.handoff_p50_us", "us", "lower", false, kRt, Source::kPlain},
      {"rt.handoff_p99_us", "us", "lower", false, kRt, Source::kPlain},
      // Per layer.
      {"trace.overhead_frac", "frac", "lower", true, kAll, Source::kDerived},
      {"trace.unattributed_frac", "frac", "lower", true, kAll,
       Source::kTraced},
      {"sim.dispatch_self_frac", "frac", "lower", true, kSim, Source::kTraced},
      {"sim.events_per_op", "count", "lower", true, kSim, Source::kPlain},
      {"sim.peak_heap", "count", "lower", true, kSim, Source::kPlain},
      {"net.stage_self_frac", "frac", "lower", true, kSim | kRt,
       Source::kTraced},
      {"net.wire_msgs_per_op", "count", "lower", true, kSim | kRt,
       Source::kPlain},
      {"net.msgs_per_flight", "count", "higher", true, kSim | kRt,
       Source::kPlain},
      {"mutex.handler_self_frac", "frac", "lower", true, kSim | kRt,
       Source::kTraced},
      {"mutex.api_self_frac", "frac", "lower", true, kRt, Source::kTraced},
      {"mutex.stale_drops_per_op", "count", "lower", true, kSim | kRt,
       Source::kPlain},
  };
  for (const char* t : {"request", "reply", "release", "inquire", "fail",
                        "yield", "transfer", "failure"})
    d.push_back({std::string("mutex.msgs_per_op.") + t, "count", "lower", true,
                 kSim | kRt, Source::kTraced});
  const std::vector<MetricDef> rest = {
      {"core.proxy_share", "frac", "higher", true, kSim | kRt, Source::kPlain},
      {"core.recoveries", "count", "lower", true, kSim | kRt, Source::kPlain},
      {"core.aborts", "count", "lower", true, kSim | kRt, Source::kPlain},
      {"core.cs_per_t", "1/T", "higher", true, kSim | kRt, Source::kPlain},
      {"core.wait_p50_t", "T", "lower", true, kSim | kRt, Source::kPlain},
      {"core.wait_p99_t", "T", "lower", true, kSim | kRt, Source::kPlain},
      {"core.sync_delay_t", "T", "lower", true, kSim | kRt, Source::kPlain},
      {"core.unavailability_t", "T", "lower", true, kSim | kRt,
       Source::kPlain},
      {"quorum.mean_k", "count", "lower", true, kAll, Source::kPlain},
      {"quorum.build_s", "s", "lower", true, kAll, Source::kPlain},
      {"harness.queueing_mean_t", "T", "lower", true, kSim | kRt,
       Source::kPlain},
      {"rt.pump_busy_frac", "frac", "lower", true, kRt, Source::kTraced},
      {"rt.spilled_msgs", "count", "lower", true, kRt, Source::kPlain},
      {"verify.replay_steps_per_op", "count", "lower", true, kEx,
       Source::kPlain},
      {"verify.nodes_per_op", "count", "lower", true, kEx, Source::kPlain},
      {"verify.tasks_donated", "count", "lower", true, kEx, Source::kPlain},
      {"verify.steps_per_worker_s", "1/s", "higher", true, kEx,
       Source::kPlain},
      {"obs.checker_overhead_frac", "frac", "lower", true, kSim,
       Source::kDerived},
  };
  d.insert(d.end(), rest.begin(), rest.end());
  return d;
}

// One run's length in seconds, as pinned in BENCHMARK.json (run_seconds).
constexpr double kRunSeconds = 20;

struct Options {
  std::vector<std::string> workloads;  // empty = all
  uint64_t seed = 1;
  double seconds = -1;  // < 0: kRunSeconds, or 0.5 under --quick
  bool traced = false;
  int repeat = 1;
  bool json = false;
  std::string json_path = "BENCH_dqme_bench.json";
  std::string trace_out;
  bool quick = false;
  bool check = false;
};

void usage() {
  std::cerr
      << "usage: dqme_bench [--workload=W[,W...]|all] [--seed=S] "
         "[--seconds=X] [--traced]\n"
         "                  [--repeat=K] [--json[=PATH]] [--trace-out=PATH] "
         "[--quick] [--check]\n"
         "workloads:";
  for (const Workload& w : make_workloads(1, false)) std::cerr << " " << w.name;
  std::cerr << "\n";
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

bool parse_uint(const std::string& s, uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
    return false;
  out = std::strtoull(s.c_str(), nullptr, 10);
  return true;
}

// Accepts --flag=value and --flag value alike. Returns 0 on success, else
// the exit status to use.
int parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    bool has_value = false;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const auto need = [&]() -> bool {
      if (has_value) return true;
      if (i + 1 >= argc) return false;
      value = argv[++i];
      return true;
    };
    uint64_t u = 0;
    if (arg == "--workload") {
      if (!need()) return 2;
      std::stringstream ss(value);
      std::string item;
      while (std::getline(ss, item, ','))
        if (!item.empty() && item != "all") o.workloads.push_back(item);
    } else if (arg == "--seed") {
      if (!need() || !parse_uint(value, o.seed)) return 2;
    } else if (arg == "--seconds") {
      if (!need()) return 2;
      char* end = nullptr;
      o.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(o.seconds > 0) ||
          o.seconds > 120)
        return 2;
    } else if (arg == "--traced") {
      o.traced = true;
    } else if (arg == "--repeat") {
      if (!need() || !parse_uint(value, u) || u < 1 || u > 100) return 2;
      o.repeat = static_cast<int>(u);
    } else if (arg == "--json") {
      o.json = true;
      if (has_value) {
        if (value.empty()) return 2;
        o.json_path = value;
      }
    } else if (arg == "--trace-out") {
      if (!need() || value.empty()) return 2;
      o.trace_out = value;
    } else if (arg == "--quick") {
      o.quick = true;
    } else if (arg == "--check") {
      o.check = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      std::exit(0);
    } else {
      std::cerr << "dqme_bench: unknown argument '" << argv[i] << "'\n";
      return 2;
    }
  }
  if (o.seconds < 0) o.seconds = o.quick ? 0.5 : kRunSeconds;
  return 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// First and third quartile by Python's statistics.quantiles(n=4) default
// ("exclusive") rule, so the spreads printed here match the ones an
// external checker computes from the same values.
std::pair<double, double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n < 2) return {n ? v[0] : 0, n ? v[0] : 0};
  const auto q = [&](long i) {
    const long m = static_cast<long>(n) + 1;
    const long j = std::clamp<long>(i * m / 4, 1, static_cast<long>(n) - 1);
    const long delta = i * m - j * 4;
    return (v[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
           4;
  };
  return {q(1), q(3)};
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out + "\"";
}

struct Value {
  double v = 0;
  std::string unit;
  std::string better;
  bool measured = true;  // false: the workload does not exercise the layer
};

struct RunResult {
  std::string workload;
  int round = 0;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, int> reps;  // by kind
  std::vector<double> plain_ops_per_s;  // per untraced rep, in run order
  std::vector<std::pair<std::string, Value>> metrics;  // report order
};

const char* kind_name(RepKind k) {
  switch (k) {
    case RepKind::kPlain:
      return "plain";
    case RepKind::kTraced:
      return "traced";
    case RepKind::kChecked:
      return "checked";
  }
  return "?";
}

// High-water resident set of this process image. VmHWM, unlike
// getrusage's ru_maxrss, starts over at exec, so a launcher's footprint
// never leaks into the number.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024;
}

std::string span_unit(const std::string& name) {
  return name.size() > 3 && name.compare(name.size() - 3, 3, "_ns") == 0
             ? "ns"
             : "count";
}

RunResult run_workload(const Workload& w, const Options& o, int round,
                       std::unique_ptr<Tracer>& last_tracer) {
  RunResult out;
  out.workload = w.name;
  out.round = round;
  if (o.check)
    for (const std::string& d : check_against_harness(w))
      out.errors.push_back("harness equivalence: " + d);

  std::vector<RepKind> kinds = {RepKind::kPlain};
  if (o.traced) {
    kinds.push_back(RepKind::kTraced);
    if (w.checker_reps) kinds.push_back(RepKind::kChecked);
  }
  // At least this many reps of each kind, however short --seconds is: the
  // untraced set-up median needs five samples; a traced run interleaves two
  // or three kinds, each twice.
  const size_t per_kind = o.traced ? 2 : (o.quick ? 3 : 5);
  std::map<RepKind, std::vector<RepResult>> reps;
  const int64_t start = now_ns();
  for (size_t i = 0;; ++i) {
    const RepKind kind = kinds[i % kinds.size()];
    std::unique_ptr<Tracer> tracer;
    if (kind == RepKind::kTraced) tracer = std::make_unique<Tracer>();
    RepResult rep;
    try {
      rep = run_rep(w, kind, tracer.get(), o.check);
    } catch (const std::exception& e) {
      rep.errors.push_back(std::string("exception: ") + e.what());
    }
    if (tracer) last_tracer = std::move(tracer);
    for (const std::string& e : rep.errors)
      out.errors.push_back(std::string(kind_name(kind)) + " rep " +
                           std::to_string(reps[kind].size()) + ": " + e);
    const bool bad = !rep.errors.empty();
    reps[kind].push_back(std::move(rep));
    if (bad) break;
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    if (i + 1 >= per_kind * kinds.size() && elapsed >= o.seconds) break;
  }

  const std::vector<RepResult>& plain = reps[RepKind::kPlain];
  const std::vector<RepResult>& traced = reps[RepKind::kTraced];
  const std::vector<RepResult>& checked = reps[RepKind::kChecked];
  for (const auto& [kind, list] : reps) {
    if (list.empty()) continue;
    out.reps[kind_name(kind)] = static_cast<int>(list.size());
    for (const RepResult& r : list) {
      out.attempted += r.attempted;
      out.failed += r.failed;
      // Deterministic simulator outputs: every rep of the seed, traced or
      // checked, must reproduce the first untraced rep exactly.
      if (r.exact != plain.front().exact)
        out.errors.push_back(std::string(kind_name(kind)) +
                             " rep changed the simulator's outputs");
    }
  }
  if (!out.errors.empty()) return out;

  const auto collect = [](const std::vector<RepResult>& list, auto&& f) {
    std::vector<double> v;
    for (const RepResult& r : list) v.push_back(f(r));
    return v;
  };
  const auto ns_per_op = [](const RepResult& r) {
    return r.window_s * 1e9 / r.ops;
  };
  const double plain_ns = median(collect(plain, ns_per_op));
  const auto ratio_to_plain = [&](const std::vector<RepResult>& list) {
    return list.empty() ? 0 : median(collect(list, ns_per_op)) / plain_ns - 1;
  };
  out.plain_ops_per_s =
      collect(plain, [](const RepResult& r) { return r.ops / r.window_s; });

  const uint8_t fam = static_cast<uint8_t>(w.family);
  for (const MetricDef& d : metric_defs()) {
    const bool measured = (d.families & fam) != 0;
    if (!o.traced && d.source == Source::kTraced) continue;
    if (!o.traced && d.layer && d.source == Source::kDerived) continue;
    double v = 0;
    const std::string& name = d.name;
    if (d.source == Source::kDerived) {
      if (name == "setup_s") {
        v = median(
            collect(plain, [](const RepResult& r) { return r.setup_s; }));
      } else if (name == "ops_per_s") {
        v = median(out.plain_ops_per_s);
      } else if (name == "cpu_us_per_op") {
        v = median(collect(
            plain, [](const RepResult& r) { return r.cpu_s * 1e6 / r.ops; }));
      } else if (name == "peak_rss_mb") {
        v = peak_rss_mb();
      } else if (name == "failed_frac") {
        v = out.attempted > 0 ? static_cast<double>(out.failed) /
                                    static_cast<double>(out.attempted)
                              : 0;
      } else if (name == "trace.overhead_frac") {
        v = ratio_to_plain(traced);
      } else if (name == "obs.checker_overhead_frac") {
        v = ratio_to_plain(checked);
      }
    } else if (measured) {
      const auto& list = d.source == Source::kTraced ? traced : plain;
      std::vector<double> vals;
      for (const RepResult& r : list) {
        const auto it = r.values.find(name);
        if (it == r.values.end()) {
          out.errors.push_back("internal: metric " + name + " not measured");
          break;
        }
        vals.push_back(it->second);
      }
      v = median(vals);
    }
    out.metrics.push_back({name, {v, d.unit, d.better, measured}});
  }
  // Per-boundary span accounting (calls, total and self ns), traced only.
  if (o.traced) {
    std::map<std::string, std::vector<double>> spans;
    for (const RepResult& r : traced)
      for (const auto& [name, value] : r.values)
        if (name.rfind("span.", 0) == 0) spans[name].push_back(value);
    for (const auto& [name, vals] : spans)
      out.metrics.push_back({name, {median(vals), span_unit(name), "lower"}});
  }
  return out;
}

std::string provenance(const Options& o) {
  char host[256] = "unknown";
  if (gethostname(host, sizeof host - 1) != 0) std::strcpy(host, "unknown");
  host[sizeof host - 1] = '\0';
  char date[32] = "unknown";
  const std::time_t t = std::time(nullptr);
  std::tm tmv{};
  if (gmtime_r(&t, &tmv) != nullptr)
    std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%SZ", &tmv);
  const char* commit = std::getenv("DQME_COMMIT");
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream os;
  os << "{\"host\": " << json_str(host) << ", \"date\": " << json_str(date)
     << ", \"commit\": " << json_str(commit != nullptr ? commit : "unknown")
     << ", \"nproc\": " << available_cpus()
     << ", \"build_type\": " << json_str(DQME_BENCH_BUILD_TYPE)
     << ", \"compiler\": " << json_str(compiler)
     << ", \"seed\": " << o.seed << ", \"threads\": " << kThreads
     << ", \"seconds\": " << json_num(o.seconds)
     << ", \"traced\": " << (o.traced ? "true" : "false")
     << ", \"quick\": " << (o.quick ? "true" : "false") << "}";
  return os.str();
}

void print_run(const RunResult& r, const Options& o) {
  std::cout << "== " << r.workload << " (seed " << o.seed << ", "
            << (o.traced ? "traced" : "untraced") << ", reps:";
  for (const auto& [k, n] : r.reps) std::cout << " " << k << "=" << n;
  std::cout << ")\n";
  for (const std::string& e : r.errors) std::cout << "  FAIL " << e << "\n";
  std::cout << "  attempted=" << r.attempted << " failed=" << r.failed << "\n";
  std::cout << "  ops_per_s by untraced rep:";
  for (double v : r.plain_ops_per_s)
    std::cout << " " << static_cast<int64_t>(v);
  std::cout << "\n";
  for (const auto& [name, v] : r.metrics) {
    if (!v.measured) continue;
    char line[200];
    std::snprintf(line, sizeof line, "  %-40s %16.6g %-6s (%s is better)\n",
                  name.c_str(), v.v, v.unit.c_str(), v.better.c_str());
    std::cout << line;
  }
}

void write_metrics_json(std::ostream& os,
                        const std::vector<std::pair<std::string, Value>>& m) {
  os << "{";
  for (size_t i = 0; i < m.size(); ++i)
    os << (i ? ", " : "") << json_str(m[i].first) << ": {\"value\": "
       << json_num(m[i].second.v)
       << ", \"unit\": " << json_str(m[i].second.unit) << "}";
  os << "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (parse(argc, argv, o) != 0) {
    usage();
    return 2;
  }
  const std::vector<Workload> all = make_workloads(o.seed, o.quick);
  std::vector<const Workload*> selected;
  if (o.workloads.empty()) {
    for (const Workload& w : all) selected.push_back(&w);
  } else {
    for (const std::string& name : o.workloads) {
      const auto it =
          std::find_if(all.begin(), all.end(),
                       [&](const Workload& w) { return w.name == name; });
      if (it == all.end()) {
        std::cerr << "dqme_bench: unknown workload '" << name << "'\n";
        return 2;
      }
      selected.push_back(&*it);
    }
  }
  // Numbers from more threads than cores measure the scheduler, not the
  // system: refuse them.
  const int cpus = available_cpus();
  for (const Workload* w : selected)
    if (w->threads > cpus) {
      std::cerr << "dqme_bench: " << w->name << " needs " << w->threads
                << " threads but only " << cpus << " CPUs are available\n";
      return 2;
    }

  std::unique_ptr<Tracer> last_tracer;
  std::vector<RunResult> runs;
  for (int round = 0; round < o.repeat; ++round) {
    std::vector<const Workload*> order = selected;
    if (round % 2 == 1) std::reverse(order.begin(), order.end());
    for (const Workload* w : order) {
      runs.push_back(run_workload(*w, o, round, last_tracer));
      print_run(runs.back(), o);
    }
  }

  // Fold the runs of each workload: median (and quartiles for --repeat).
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::pair<std::string, Value>> final_metrics;
  std::ostringstream summary;
  for (const Workload* w : selected) {
    std::vector<std::string> names;
    std::map<std::string, std::vector<double>> vals;
    std::map<std::string, Value> info;  // unit and direction by name
    for (const RunResult& r : runs) {
      if (r.workload != w->name) continue;
      correct = correct && r.errors.empty();
      attempted += r.attempted;
      failed += r.failed;
      for (const auto& [name, v] : r.metrics) {
        if (!vals.count(name)) names.push_back(name);
        vals[name].push_back(v.v);
        info[name] = v;
      }
    }
    if (o.repeat > 1) {
      std::cout << "== " << w->name << ": median [q1, q3] (spread) over "
                << o.repeat << " runs\n";
    }
    summary << (summary.tellp() > 0 ? ", " : "") << json_str(w->name)
            << ": {";
    for (size_t i = 0; i < names.size(); ++i) {
      const std::string& name = names[i];
      const double med = median(vals[name]);
      const auto [q1, q3] = quartiles(vals[name]);
      const double spread = med != 0 ? (q3 - q1) / std::fabs(med) : 0;
      if (o.repeat > 1) {
        char line[200];
        std::snprintf(line, sizeof line,
                      "  %-34s %14.6g [%.6g, %.6g] (%.2f%%) %s\n",
                      name.c_str(), med, q1, q3, 100 * spread,
                      info[name].unit.c_str());
        std::cout << line;
      }
      summary << (i ? ", " : "") << json_str(name) << ": {\"median\": "
              << json_num(med) << ", \"q1\": " << json_num(q1)
              << ", \"q3\": " << json_num(q3)
              << ", \"unit\": " << json_str(info[name].unit) << "}";
      const std::string key =
          selected.size() == 1 ? name : w->name + "/" + name;
      final_metrics.push_back({key, {med, info[name].unit, info[name].better}});
    }
    summary << "}";
  }

  if (!o.trace_out.empty()) {
    if (last_tracer == nullptr) {
      std::cerr << "dqme_bench: --trace-out needs --traced\n";
    } else {
      std::ofstream f(o.trace_out);
      if (f) {
        last_tracer->write_chrome(f);
        std::cerr << "dqme_bench: wrote " << o.trace_out << "\n";
      } else {
        std::cerr << "dqme_bench: cannot write " << o.trace_out << "\n";
      }
    }
  }
  if (o.json) {
    std::ofstream f(o.json_path);
    if (!f) {
      std::cerr << "dqme_bench: cannot write " << o.json_path << "\n";
    } else {
      f << "{\n  \"suite\": \"dqme_bench\",\n  \"provenance\": "
        << provenance(o) << ",\n  \"runs\": [";
      for (size_t i = 0; i < runs.size(); ++i) {
        const RunResult& r = runs[i];
        f << (i ? "," : "") << "\n    {\"workload\": " << json_str(r.workload)
          << ", \"round\": " << r.round
          << ", \"correct\": " << (r.errors.empty() ? "true" : "false")
          << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
          << ", \"reps\": {";
        size_t k = 0;
        for (const auto& [kind, n] : r.reps)
          f << (k++ ? ", " : "") << json_str(kind) << ": " << n;
        f << "}, \"errors\": [";
        for (size_t e = 0; e < r.errors.size(); ++e)
          f << (e ? ", " : "") << json_str(r.errors[e]);
        f << "], \"metrics\": ";
        write_metrics_json(f, r.metrics);
        f << "}";
      }
      f << "\n  ],\n  \"summary\": {" << summary.str() << "}\n}\n";
    }
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": ";
  write_metrics_json(std::cout, final_metrics);
  std::cout << "}" << std::endl;
  return correct ? 0 : 1;
}
