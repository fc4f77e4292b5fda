// E4 — §5.2: "at heavy loads, the rate of CS execution (i.e., throughput)
// is doubled" relative to Maekawa. Swept over CS durations: the advantage
// is largest when E << T (delay-dominated) and shrinks as E dominates.
//
// Ported to the unified bench::Runner: the (E × algorithm) grid is one
// parallel sweep, so --jobs parallelizes what used to be ten serial runs.
#include <iostream>

#include "runner.h"

int main(int argc, char** argv) {
  using namespace dqme;
  using bench::heavy;
  using bench::kT;
  using harness::ExperimentResult;
  using harness::Table;

  auto opts = bench::parse_bench_flags(argc, argv, "e4_throughput");

  const bench::MetricDef kCsPerT{
      "cs_per_T", [](const ExperimentResult& r) {
        return r.summary.throughput * static_cast<double>(kT);
      }};

  bench::Runner run("e4_throughput", opts);
  const Time es[] = {10, 100, 500, 1000, 3000};
  int prop[5], mae[5];
  for (int i = 0; i < 5; ++i) {
    auto pc = heavy(mutex::Algo::kCaoSinghal, 25);
    auto mc = heavy(mutex::Algo::kMaekawa, 25);
    pc.workload.cs_duration = mc.workload.cs_duration = es[i];
    prop[i] = run.add("proposed/E" + std::to_string(es[i]), pc, {kCsPerT});
    mae[i] = run.add("maekawa/E" + std::to_string(es[i]), mc, {kCsPerT});
  }
  run.execute();

  std::cout << "E4 — saturated throughput, proposed vs Maekawa (N=25, "
               "grid)\n\n";
  Table t({"E (CS ticks)", "proposed CS/T", "maekawa CS/T", "speedup",
           "ideal 1/(E+T) vs 1/(E+2T)"});
  for (int i = 0; i < 5; ++i) {
    const double p = run.stat(prop[i], "cs_per_T").mean;
    const double m = run.stat(mae[i], "cs_per_T").mean;
    const double ideal = static_cast<double>(es[i] + 2 * kT) /
                         static_cast<double>(es[i] + kT);
    t.add_row({Table::integer(static_cast<uint64_t>(es[i])),
               Table::num(p, 3), Table::num(m, 3),
               Table::num(p / m, 2) + "x", Table::num(ideal, 2) + "x"});
  }
  t.print(std::cout);
  std::cout << "\nExpected shape: speedup ~2x when E << T (the cycle is one "
               "delay instead of two), decaying toward 1x as E dominates "
               "the cycle — matching the ideal-ratio column.\n";
  return run.finish(std::cout);
}
