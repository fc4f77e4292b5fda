// E7 — §6: fault tolerance. Two parts:
//  (a) availability of each quorum construction as the per-site failure
//      probability p rises (exact for N <= 20, Monte-Carlo otherwise);
//  (b) end-to-end: the FT-enabled algorithm keeps executing CSs across
//      site crashes (tree quorums + the §6 recovery protocol), with
//      mutual exclusion intact.
//
// Part (b) is ported to the unified bench::Runner — scenarios run as one
// parallel sweep; part (a) is pure combinatorics and stays inline.
#include <algorithm>
#include <iostream>
#include <string>

#include "quorum/availability.h"
#include "quorum/factory.h"
#include "runner.h"

int main(int argc, char** argv) {
  using namespace dqme;
  using harness::ExperimentResult;
  using harness::Table;

  auto opts = bench::parse_bench_flags(argc, argv, "e7_fault_tolerance");

  std::cout << "E7a — availability vs per-site failure probability p\n"
            << "(N=15/16; exact where 2^N is feasible, else Monte-Carlo "
               "100k samples)\n\n";
  Table t({"p", "grid(16)", "tree(15)", "majority(15)", "hqc(27)",
           "gridset(16)", "rst(16)", "singleton(15)"});
  Rng rng(7);
  const struct {
    const char* kind;
    int n;
  } systems[] = {{"grid", 16},     {"tree", 15}, {"majority", 15},
                 {"hqc", 27},      {"gridset:4", 16},
                 {"rst:4", 16},    {"singleton", 15}};
  const int mc_samples = opts.quick ? 20000 : 100000;
  for (double p : {0.02, 0.05, 0.1, 0.2, 0.3, 0.5}) {
    std::vector<std::string> row{Table::num(p, 2)};
    for (const auto& s : systems) {
      auto qs = quorum::make_quorum_system(s.kind, s.n);
      const double up = 1.0 - p;
      const double a = s.n <= 20 ? quorum::exact_availability(*qs, up)
                                 : quorum::mc_availability(*qs, up,
                                                           mc_samples, rng);
      row.push_back(Table::num(a, 4));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  std::cout << "\nExpected shape: majority highest at every p; tree beats "
               "grid (graceful path substitution); singleton worst "
               "(1-p).\n\n";

  std::cout << "E7b — end-to-end crash runs (proposed algorithm, fault-"
               "tolerant mode, tree quorums N=15, closed loop)\n\n";
  struct Scenario {
    const char* name;
    std::vector<harness::ExperimentConfig::Crash> crashes;
    int row = 0;
  };
  Scenario scenarios[] = {
      {"no crashes", {}},
      {"leaf crash (t=0.3M)", {{bench::scale_time(300'000), 9}}},
      {"internal node crash", {{bench::scale_time(300'000), 1}}},
      {"root crash (in every quorum)", {{bench::scale_time(300'000), 0}}},
      {"three staggered crashes",
       {{bench::scale_time(300'000), 9},
        {bench::scale_time(600'000), 1},
        {bench::scale_time(900'000), 5}}},
  };
  const std::vector<bench::MetricDef> counters = {
      {"completed",
       [](const ExperimentResult& r) {
         return static_cast<double>(r.summary.completed);
       }},
      {"recoveries",
       [](const ExperimentResult& r) {
         return static_cast<double>(r.protocol_stats.recoveries);
       }},
      {"aborted",
       [](const ExperimentResult& r) {
         return static_cast<double>(r.demands_aborted);
       }},
  };
  bench::Runner run("e7_fault_tolerance", opts);
  for (Scenario& s : scenarios) {
    harness::ExperimentConfig cfg =
        bench::heavy(mutex::Algo::kCaoSinghal, 15, "tree", 11);
    cfg.options.fault_tolerant = true;
    cfg.measure = bench::scale_time(1'500'000);
    cfg.crashes = s.crashes;
    s.row = run.add(s.name, cfg, counters);
  }

  // E7c — the §6 recovery trajectory, time-resolved: one root-crash run
  // with the windowed timeline enabled, so throughput and waiting-time
  // percentiles are visible per window ACROSS the crash instead of
  // averaged away. This row feeds the "timeline" key of the suite JSON
  // (markers included), which CI's validate_timeline.py asserts on.
  int trajectory;
  {
    harness::ExperimentConfig cfg =
        bench::heavy(mutex::Algo::kCaoSinghal, 15, "tree", 11);
    cfg.options.fault_tolerant = true;
    cfg.measure = bench::scale_time(1'500'000);
    cfg.crashes = {{bench::scale_time(300'000), 0}};
    cfg.timeline_window = bench::scale_time(50'000);
    trajectory = run.add("recovery trajectory (root crash)", cfg, counters);
  }

  run.execute();

  Table e({"scenario", "completed", "recoveries", "aborted", "violations",
           "drained"});
  for (const Scenario& s : scenarios) {
    const auto& r = run.first(s.row);
    e.add_row({s.name, Table::num(run.stat(s.row, "completed").mean, 0),
               Table::num(run.stat(s.row, "recoveries").mean, 0),
               Table::num(run.stat(s.row, "aborted").mean, 0),
               Table::integer(r.summary.violations),
               r.drained_clean ? "yes" : "NO"});
  }
  e.print(std::cout);
  std::cout << "\nExpected shape: progress (completed > 0) in every "
               "scenario, recoveries > 0 whenever a quorum member died, "
               "zero violations throughout.\n";

  // E7c render: per-window throughput as ASCII bars, crash/recovery markers
  // flagged on their windows. The dip-and-climb across the crash IS the §6
  // claim, now visible.
  {
    const obs::Timeline& tl = run.first(trajectory).timeline;
    std::cout << "\nE7c — recovery trajectory (root crash, window="
              << tl.window() << " ticks)\n\n";
    const auto* completed = tl.find_counter("cs.completed");
    const std::vector<uint64_t> empty;
    const std::vector<uint64_t>* series =
        completed != nullptr ? &completed->windows() : &empty;
    uint64_t peak = 1;
    for (uint64_t v : *series) peak = std::max(peak, v);
    for (size_t w = 0; w < series->size(); ++w) {
      const Time w_start = tl.origin() + static_cast<Time>(w) * tl.window();
      const Time w_end = w_start + tl.window();
      std::string tags;
      for (const auto& m : tl.markers())
        if (w_start <= m.at && m.at < w_end) tags += "  <-- " + m.label;
      const auto bar = static_cast<size_t>(
          (*series)[w] * 50 / peak);
      std::cout << "  w" << (w < 10 ? " " : "") << w << " |"
                << std::string(bar, '#') << std::string(50 - bar, ' ') << "| "
                << (*series)[w] << tags << "\n";
    }
    bool has_crash = false, has_recovery = false;
    for (const auto& m : tl.markers()) {
      has_crash = has_crash || m.label.rfind("crash", 0) == 0;
      has_recovery = has_recovery || m.label.rfind("recovery", 0) == 0;
    }
    std::cout << "\n  markers: crash=" << (has_crash ? "yes" : "NO")
              << " recovery=" << (has_recovery ? "yes" : "NO") << "\n";
    run.require(has_crash && has_recovery);
  }
  return run.finish(std::cout);
}
