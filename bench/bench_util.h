// Shared configuration builders and CLI plumbing for the reproduction
// benches (E1..E9, X1..X2, micro_core).
// Conventions: T = 1000 ticks, closed loop = the paper's "heavy load",
// open loop Poisson arrivals = "light load" (§5).
//
// Every bench accepts the same flags (parse_bench_flags; SUITE --help).
#pragma once

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "harness/experiment.h"
#include "harness/table.h"
#include "obs/chrome_trace.h"
#include "obs/critpath.h"
#include "obs/lock_stats.h"

namespace dqme::bench {

inline constexpr Time kT = 1000;  // the paper's mean message delay

// --quick divides every simulated-time window by this; parse_bench_flags
// sets it so the heavy()/open_load() builders honor the flag everywhere.
inline Time g_time_divisor = 1;

inline Time scale_time(Time t) {
  Time s = t / g_time_divisor;
  return s < 1 ? 1 : s;
}

struct BenchOptions {
  int jobs = 1;           // sweep worker threads; 0 = hardware concurrency
  int seeds = 0;          // 0 = each suite's per-row default
  int threads = 0;        // rt suites only: restrict grid to this site count
  bool quick = false;
  bool check = false;     // run every row under the invariant checker
  bool json = false;
  std::string json_path;  // resolved to BENCH_<suite>.json when empty
  std::string trace_out;  // Chrome trace output path; empty = no trace
  std::string suite;
};

// --jobs starts one OS thread per job (at most one per sweep row); more
// than this is a typo, not a host.
inline constexpr int kMaxJobs = 256;

// Parses the shared bench flags; exits 2 on bad input. A leftover
// argument is a typo'd flag — silently running with defaults would
// masquerade as the requested run — unless the suite parses the remainder
// itself (`pass_through`: micro_core's google-benchmark flags), which then
// stays in argv (argc updated). `accepts_threads` is opted into by
// real-threads suites (rt_core); simulator suites do not take --threads —
// the discrete-event engine is single-logical-threaded per run, so the
// flag would silently mean nothing there (use --jobs=N for sweep
// parallelism).
inline BenchOptions parse_bench_flags(int& argc, char** argv,
                                      const std::string& suite,
                                      bool accepts_threads = false,
                                      bool pass_through = false) {
  BenchOptions o;
  o.suite = suite;
  flags::Table t(suite);
  t.number("--jobs", "N", "sweep worker threads (0 = all cores)", o.jobs, 0,
           kMaxJobs)
      .number("--seeds", "K",
              "replications per row (overrides the suite\ndefault)",
              o.seeds, 1)
      .flag("--quick", "shrink simulated-time windows ~8x (CI smoke)",
            o.quick)
      .flag("--check",
            "run the online invariant checker over every\n"
            "run; any violation fails the suite",
            o.check)
      .optional("--json", "PATH",
                "write machine-readable results\n"
                "(default BENCH_<suite>.json)",
                o.json, o.json_path)
      .text("--trace-out", "FILE",
            "record one configuration and export a\n"
            "Chrome trace-event JSON",
            o.trace_out);
  if (accepts_threads)
    t.number("--threads", "K",
             "restrict the real-threads grid to K pump\nthreads", o.threads,
             2);
  const std::vector<std::string> rest =
      t.parse_or_exit(argc, argv, pass_through);
  int keep = 1;
  for (int i = 1; i < argc && static_cast<size_t>(keep - 1) < rest.size();
       ++i)
    if (rest[static_cast<size_t>(keep - 1)] == argv[i]) argv[keep++] = argv[i];
  argc = keep;
  if (o.json && o.json_path.empty()) o.json_path = "BENCH_" + suite + ".json";
  if (o.quick) g_time_divisor = 8;
  return o;
}

inline harness::ExperimentConfig heavy(mutex::Algo algo, int n,
                                       const std::string& quorum = "grid",
                                       uint64_t seed = 1) {
  harness::ExperimentConfig cfg;
  cfg.algo = algo;
  cfg.n = n;
  cfg.quorum = quorum;
  cfg.mean_delay = kT;
  cfg.workload.mode = harness::Workload::Config::Mode::kClosed;
  cfg.workload.cs_duration = 100;  // E = T/10
  cfg.warmup = scale_time(200'000);
  cfg.measure = scale_time(2'000'000);
  cfg.seed = seed;
  return cfg;
}

// `relative_load` = offered aggregate demand as a fraction of the SLOWEST
// baseline's saturation throughput, 1/(2T+E) (Maekawa's cycle). Using the
// slower denominator keeps every algorithm in a stable queueing regime
// across a 0..1 sweep, so cross-algorithm waiting/delay comparisons are
// apples-to-apples. 0.05 = the paper's light load.
inline harness::ExperimentConfig open_load(mutex::Algo algo, int n,
                                           double relative_load,
                                           const std::string& quorum = "grid",
                                           uint64_t seed = 1) {
  harness::ExperimentConfig cfg = heavy(algo, n, quorum, seed);
  harness::set_open_load(cfg, relative_load);
  cfg.measure = scale_time(4'000'000);
  return cfg;
}

// --trace-out support: records ONE short single run of `cfg` with the
// observability capture attached and writes it as Chrome trace-event JSON.
// Deliberately a separate re-execution — the statistical sweep stays
// recorder-free, so --trace-out never perturbs the numbers a bench reports.
// The windows are capped (traces are for reading, not statistics) to keep
// the JSON loadable in the viewer.
inline void maybe_write_trace(const BenchOptions& opts,
                              harness::ExperimentConfig cfg) {
  if (opts.trace_out.empty()) return;
  if (cfg.warmup > 20'000) cfg.warmup = 20'000;
  if (cfg.measure > 100'000) cfg.measure = 100'000;
  obs::Recording cap;
  cfg.capture = &cap;
  harness::run_experiment(cfg);
  obs::write_chrome_trace(opts.trace_out, cap, std::cout);
}

// Prints the standard integrity line every bench ends with: the run is
// only meaningful if Theorems 1-3 held.
inline void print_integrity(const harness::ExperimentResult& r) {
  std::cout << "  [integrity] violations=" << r.summary.violations
            << " drained_clean=" << (r.drained_clean ? "yes" : "NO")
            << " completed=" << r.summary.completed << "\n";
}

// --- machine-readable results (BENCH_*.json) --------------------------

struct JsonMetric {
  std::string metric;
  double mean = 0;
  double sd = 0;
  // Measured with more threads than the host has CPUs: written out as
  // "oversubscribed": true, so the row is not read as scaling.
  bool oversubscribed = false;
};

inline std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Provenance block: which machine, when, and at which commit the numbers
// were produced. scripts/check_perf.py prints it for both sides of a
// comparison, so a committed baseline that predates the code it gates is
// visible instead of silently trusted. The commit comes from DQME_COMMIT
// (set by CI / the regeneration recipe); "unknown" means a local ad-hoc run.
inline void write_provenance(std::ostream& f) {
  char host[256] = "unknown";
  if (gethostname(host, sizeof host - 1) != 0)
    std::strcpy(host, "unknown");  // NOLINT(runtime/printf)
  host[sizeof host - 1] = '\0';
  char date[32] = "unknown";
  const std::time_t t = std::time(nullptr);
  std::tm tmv{};
  if (gmtime_r(&t, &tmv) != nullptr)
    std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%SZ", &tmv);
  const char* commit = std::getenv("DQME_COMMIT");
  f << "\"provenance\": {\"host\": " << json_string(host)
    << ", \"date\": \"" << date << "\", \"commit\": "
    << json_string(commit != nullptr ? commit : "unknown") << "}";
}

// One flat, self-describing file per suite so the perf trajectory can be
// tracked across commits: suite + per-metric (mean, sd) + engine totals.
// `registry` (optional) embeds the merged obs::Registry of the sweep under
// a "registry" key — counters/gauges/histograms in deterministic order.
// `timeline` (optional) embeds the merged obs::Timeline under a "timeline"
// key — per-window series + markers, same determinism contract.
// `lock_stats` (optional) embeds the merged obs::LockStats hot-set tracker
// under a "lock_stats" key.
// `critpath` (optional) embeds the merged obs::CritStats delay budget
// under a "critpath" key — integer counters merged in result-index order,
// so the bytes are identical for any --jobs value.
inline void write_bench_json(const BenchOptions& opts, bool ok,
                             double wall_ms, double events_per_sec,
                             const std::vector<JsonMetric>& metrics,
                             const obs::Registry* registry = nullptr,
                             const obs::Timeline* timeline = nullptr,
                             const obs::LockStats* lock_stats = nullptr,
                             const obs::CritStats* critpath = nullptr) {
  if (!opts.json) return;
  std::ofstream f(opts.json_path);
  if (!f) {
    std::cerr << "cannot write " << opts.json_path << "\n";
    return;
  }
  f << "{\n"
    << "  \"suite\": " << json_string(opts.suite) << ",\n"
    << "  \"ok\": " << (ok ? "true" : "false") << ",\n"
    << "  \"jobs\": " << opts.jobs << ",\n"
    << "  \"seeds\": " << opts.seeds << ",\n"
    << "  \"quick\": " << (opts.quick ? "true" : "false") << ",\n"
    << "  \"wall_ms\": " << json_num(wall_ms) << ",\n"
    << "  \"events_per_sec\": " << json_num(events_per_sec) << ",\n"
    << "  ";
  write_provenance(f);
  f << ",\n"
    << "  \"metrics\": [";
  for (size_t i = 0; i < metrics.size(); ++i) {
    f << (i ? "," : "") << "\n    {\"suite\": " << json_string(opts.suite)
      << ", \"metric\": " << json_string(metrics[i].metric)
      << ", \"mean\": " << json_num(metrics[i].mean)
      << ", \"sd\": " << json_num(metrics[i].sd)
      << (metrics[i].oversubscribed ? ", \"oversubscribed\": true" : "")
      << "}";
  }
  f << "\n  ]";
  if (registry != nullptr && !registry->empty()) {
    f << ",\n  \"registry\": ";
    registry->write_json(f);
  }
  if (timeline != nullptr && timeline->enabled() && !timeline->empty()) {
    f << ",\n  \"timeline\": ";
    timeline->write_json(f);
  }
  if (lock_stats != nullptr && lock_stats->enabled()) {
    f << ",\n  \"lock_stats\": ";
    lock_stats->write_json(f);
  }
  if (critpath != nullptr && critpath->enabled()) {
    f << ",\n  \"critpath\": ";
    critpath->write_json(f);
  }
  f << "\n}\n";
  std::cout << "  [json] wrote " << opts.json_path << "\n";
}

}  // namespace dqme::bench
