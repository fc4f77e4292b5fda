// E5 — §5.2: "the waiting time of requests is nearly reduced to half
// because the CS executions proceed with twice the rate." Open-loop λ
// sweep across the load range, proposed vs Maekawa.
//
// Ported to the unified bench::Runner: the whole (load × algorithm) grid is
// one parallel sweep, with the waiting-time distribution (p50/p95/p99 from
// the registry histogram) reported alongside the means.
#include <iostream>

#include "runner.h"

int main(int argc, char** argv) {
  using namespace dqme;
  using bench::kT;
  using bench::open_load;
  using harness::ExperimentResult;
  using harness::Table;

  auto opts = bench::parse_bench_flags(argc, argv, "e5_waiting_time");

  const bench::MetricDef kWaitT{"waiting_mean_t",
                                [](const ExperimentResult& r) {
                                  return r.summary.waiting_mean / kT;
                                }};
  const bench::MetricDef kP50{"waiting_p50_t",
                              [](const ExperimentResult& r) {
                                return r.summary.waiting_p50 / kT;
                              }};
  const bench::MetricDef kP95{"waiting_p95_t",
                              [](const ExperimentResult& r) {
                                return r.summary.waiting_p95 / kT;
                              }};
  const bench::MetricDef kP99{"waiting_p99_t",
                              [](const ExperimentResult& r) {
                                return r.summary.waiting_p99 / kT;
                              }};
  const std::vector<bench::MetricDef> kMetrics{kWaitT, kP50, kP95, kP99};

  bench::Runner run("e5_waiting_time", opts);
  const double loads[] = {0.1, 0.3, 0.5, 0.7, 0.85};
  int prop[5], maek[5];
  for (int i = 0; i < 5; ++i) {
    prop[i] = run.add(
        "proposed/" + Table::num(loads[i], 2),
        open_load(mutex::Algo::kCaoSinghal, 25, loads[i], "grid", 3),
        kMetrics);
    maek[i] =
        run.add("maekawa/" + Table::num(loads[i], 2),
                open_load(mutex::Algo::kMaekawa, 25, loads[i], "grid", 3),
                kMetrics);
  }
  run.execute();

  std::cout << "E5 — mean waiting time (request -> CS entry) in units of T "
               "(N=25, grid, E=T/10)\n\n";
  Table t({"load", "proposed wait/T", "maekawa wait/T", "reduction",
           "proposed p95/T", "maekawa p95/T", "proposed p99/T"});
  for (int i = 0; i < 5; ++i) {
    const double pw = run.stat(prop[i], "waiting_mean_t").mean;
    const double mw = run.stat(maek[i], "waiting_mean_t").mean;
    t.add_row({Table::num(loads[i], 2), Table::num(pw, 2), Table::num(mw, 2),
               Table::num(1.0 - pw / mw, 2),
               Table::num(run.stat(prop[i], "waiting_p95_t").mean, 2),
               Table::num(run.stat(maek[i], "waiting_p95_t").mean, 2),
               Table::num(run.stat(prop[i], "waiting_p99_t").mean, 2)});
  }
  t.print(std::cout);
  std::cout << "\nExpected shape: at light load both wait ~2T (round trip); "
               "as load rises Maekawa's queues grow roughly twice as fast, "
               "so the reduction column climbs toward ~0.5 near "
               "saturation.\n";
  return run.finish(std::cout);
}
