// The six dqme_bench workloads and the code that assembles and runs one
// repetition ("rep") of each from the public constructors of the layers.
//
// A rep builds a fresh stack (timed: the set-up sample), warms it up,
// measures one fixed-size window (wall and process-CPU time), then drains
// or quiesces it and checks the outputs. Rep sizes are fixed per workload,
// so every rep of a seed sees the same inputs and a faster build simply
// fits more reps into the same run; dqme_bench reports medians over reps.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "trace.h"

namespace dqme::perf {

enum class Family : uint8_t { kSim = 1, kRt = 2, kExplore = 4 };

// kPlain: the untraced assembly (end-to-end numbers). kTraced: the same
// assembly with the seam decorators and spans. kChecked: the untraced
// assembly with obs::InvariantChecker attached (its cost is a layer metric).
enum class RepKind : uint8_t { kPlain, kTraced, kChecked };

// OS threads of the rt and explorer workloads: the rt site (pump thread)
// count and the explorer's worker count. dqme_bench refuses to run them on
// fewer CPUs.
inline constexpr int kThreads = 4;

// Real-threads closed-loop workload shape: one pump thread per site,
// majority quorums, emulated T = 100 µs.
struct RtShape {
  LockId locks = 1;
  int outstanding = 1;        // per-site requests in service (multi-lock)
  uint64_t warmup_cs = 0;     // CS entries before the window opens
  uint64_t measure_cs = 0;    // CS entries inside the window
};

struct Workload {
  std::string name;
  std::string why;
  Family family = Family::kSim;
  int threads = 1;    // OS threads the measured window runs on
  uint64_t seed = 1;  // every input of the workload derives from it

  harness::ExperimentConfig sim;  // kSim
  bool expect_recovery = false;   // kSim: the window must see §6 recovery
  bool checker_reps = false;      // kSim: traced runs also time the checker

  RtShape rt;                   // kRt
  uint64_t explore_budget = 0;  // kExplore: complete schedules per rep
};

struct RepResult {
  std::vector<std::string> errors;  // empty = every output check passed
  uint64_t attempted = 0;           // operations issued
  uint64_t failed = 0;              // operations that did not complete
  double setup_s = 0;
  double window_s = 0;  // wall seconds of the measured window
  double cpu_s = 0;     // process CPU seconds over the window
  double ops = 0;       // operations completed inside the window
  std::map<std::string, double> values;  // per-rep metrics by name
  // Simulator outputs every rep of one seed must reproduce bit for bit,
  // traced or not.
  std::map<std::string, double> exact;
};

std::vector<Workload> make_workloads(uint64_t seed, bool quick);

// `tracer` is used only by kTraced reps. `check` adds the heavier audits of
// --check (rt: merged invariant-checker replay).
RepResult run_rep(const Workload& w, RepKind kind, Tracer* tracer,
                  bool check);

// --check: runs the bench's simulator assembly and harness::run_experiment
// on a short version of `w` and returns every count that differs.
std::vector<std::string> check_against_harness(const Workload& w);

}  // namespace dqme::perf
