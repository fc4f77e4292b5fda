// One-call experiment runner: builds simulator + network + quorum system +
// protocol sites + workload, runs warmup and a measurement window, then
// drains and checks liveness (every issued demand completed — Theorems 2/3
// checked empirically on every run).
#pragma once

#include <memory>
#include <string>

#include "core/cao_singhal.h"
#include "core/failure_detector.h"
#include "harness/metrics.h"
#include "harness/workload.h"
#include "mutex/factory.h"
#include "obs/capture.h"
#include "obs/critpath.h"
#include "quorum/quorum_system.h"

namespace dqme::harness {

struct ExperimentConfig {
  mutex::Algo algo = mutex::Algo::kCaoSinghal;
  int n = 25;
  std::string quorum = "grid";

  // kClustered: sites split into `clusters` groups; intra-cluster delay is
  // mean_delay/5, cross-cluster is mean_delay (two-tier LAN/WAN).
  enum class DelayKind { kConstant, kUniform, kExponential, kClustered };
  DelayKind delay_kind = DelayKind::kConstant;
  Time mean_delay = 1000;  // the paper's T, in ticks
  int clusters = 4;        // for kClustered

  Workload::Config workload;

  Time warmup = 200'000;
  Time measure = 2'000'000;
  uint64_t seed = 1;

  mutex::AlgoOptions options;

  // Lock piggybacking window in ticks (net::Network::set_lock_piggyback):
  // staged messages for different locks to the same destination within the
  // window share one wire flight. Negative (default) leaves piggybacking
  // off, which keeps single-lock runs byte-identical to their goldens.
  Time lock_piggyback_window = -1;

  // Fault injection (§6 / E7): sites crashed at given instants. Detection
  // notices reach every live site detection_latency (+ jitter) later.
  struct Crash {
    Time at;
    SiteId victim;
  };
  std::vector<Crash> crashes;
  Time detection_latency = 2000;
  Time detection_jitter = 500;

  // Attach the online invariant checker (obs::InvariantChecker): safety
  // (CS exclusion and the per-arbiter permission ledger), transfer-
  // obligation conservation, FIFO, and the liveness watchdog run alongside
  // the protocol; violations land in invariant_* below and fail SweepRunner
  // integrity checks. Crash-aware, so it composes with `crashes`.
  bool check_invariants = false;
  // Watchdog bound in ticks; 0 picks one from the run's scale (generous
  // enough that the longest legal saturated wait stays quiet).
  Time liveness_bound = 0;

  // Observability capture (src/obs): when set, the run records every
  // control message and span edge into *capture. Single-run only —
  // SweepRunner rejects a shared capture across multiple configs. Null
  // (the default) installs no hooks.
  obs::RunCapture* capture = nullptr;

  // Time-resolved telemetry (obs::Timeline): window width in ticks; <= 0
  // (the default) disables it — no hooks, no sampler events, zero hot-path
  // cost. When enabled the result carries per-window series (throughput,
  // waiting-time quantiles, wire/control traffic, piggyback pack ratio)
  // plus crash/recovery markers, with windows anchored at tick 0 so crash
  // instants line up across runs.
  Time timeline_window = 0;

  // Per-lock hot-set tracking (obs::LockStats): capacity of the SpaceSaving
  // tracker (exact per-lock table while distinct locks <= k). 0 (default)
  // disables it.
  int lock_stats_k = 0;

  // Causal critical-path attribution (src/obs/critpath): attaches a
  // SpanRecorder, reconstructs each measurement-window request's critical
  // path after the run, and aggregates the delay budget into
  // result.critpath (plus critpath.* registry keys). Off (default) = no
  // hooks installed, zero hot-path cost.
  bool critpath = false;
  size_t critpath_capacity = 1'000'000;

  // Black-box flight recorder (obs::FlightRecorder): when non-empty, the
  // run keeps a ring of the last flight_recorder_capacity protocol events
  // and auto-dumps them to this path (Chrome-trace JSON) on the first
  // invariant violation. Requires check_invariants — the recorder is fed
  // through the checker so scripted and wire traffic look the same.
  std::string flight_recorder_dump;
  size_t flight_recorder_capacity = 4096;
};

struct ExperimentResult {
  Summary summary;
  double mean_quorum_size = 1;  // the paper's K (1 for non-quorum algos)
  // Liveness: after draining, did every issued demand complete (or get
  // written off by a crash)?
  bool drained_clean = false;
  uint64_t demands_issued = 0;
  uint64_t demands_completed = 0;
  uint64_t demands_aborted = 0;
  uint64_t stale_drops = 0;  // across all sites
  core::CaoSinghalSite::CaseStats case_stats;          // Cao-Singhal only
  core::CaoSinghalSite::ProtocolStats protocol_stats;  // Cao-Singhal only

  // Convenience: synchronization delay in units of T.
  double sync_delay_in_t = 0;

  // Invariant-checker results (when ExperimentConfig::check_invariants).
  // reports holds up to 16 human-readable violation descriptions.
  uint64_t invariant_violations = 0;
  uint64_t invariant_checks = 0;
  std::vector<std::string> invariant_reports;

  // Engine accounting (not a paper metric): simulator events executed and
  // host wall-clock spent by this run — the denominators of the perf
  // trajectory tracked by bench/micro_core and the BENCH_*.json files.
  uint64_t sim_events = 0;
  double wall_ms = 0;

  // Per-run metrics registry: measurement-window histograms ("waiting",
  // "sync_gap"), cs.completed, and end-of-run engine counters (sim.*,
  // net.*). Fold replications together with harness::merge_registries().
  obs::Registry registry;

  // Windowed series (cfg.timeline_window > 0; disabled and empty
  // otherwise). Fold replications with Timeline::merge in result-index
  // order — same determinism contract as the registry.
  obs::Timeline timeline;

  // Per-lock hot-set tracker (cfg.lock_stats_k > 0; disabled otherwise).
  obs::LockStats lock_stats;

  // Critical-path delay budget (cfg.critpath; disabled otherwise). Fold
  // replications with CritStats::merge in result-index order.
  obs::CritStats critpath;
};

ExperimentResult run_experiment(const ExperimentConfig& cfg);

// Mean and sample standard deviation of a metric across replications.
struct Replicated {
  double mean = 0;
  double sd = 0;
};

// Runs `cfg` under `replications` different seeds (cfg.seed, cfg.seed+1,
// ...) on `jobs` worker threads (see harness/sweep.h) and returns every
// run's full ExperimentResult, in seed order regardless of `jobs` — feed
// the vector to aggregate() once per metric instead of re-running. Every
// run is still checked: a safety violation or unclean drain in ANY
// replication throws.
std::vector<ExperimentResult> replicate(const ExperimentConfig& cfg,
                                        int replications, int jobs = 1);

}  // namespace dqme::harness
