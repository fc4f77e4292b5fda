// X2 (extension) — the O(sqrt N) vs O(N) scaling behind Table 1, measured:
// messages per CS and synchronization delay as N grows, proposed (on exact
// projective-plane quorums where available, grid otherwise) against the
// O(N) permission baselines and Maekawa.
//
// Ported to the unified bench::Runner: the whole (N × algorithm) grid is
// one parallel sweep — the biggest wall-clock win of the port, since the
// N=133 rows dominate and now overlap with everything else.
#include <iostream>

#include "runner.h"

int main(int argc, char** argv) {
  using namespace dqme;
  using bench::heavy;
  using harness::ExperimentResult;
  using harness::Table;

  auto opts = bench::parse_bench_flags(argc, argv, "x2_scaling");

  const bench::MetricDef kWire{
      "wire_msgs_per_cs",
      [](const ExperimentResult& r) { return r.summary.wire_msgs_per_cs; }};
  const bench::MetricDef kDelayT{
      "delay_t",
      [](const ExperimentResult& r) { return r.sync_delay_in_t; }};

  bench::Runner run("x2_scaling", opts);
  struct Grid {
    int n;
    const char* quorum;
  };
  const Grid grids[] = {{13, "fpp"}, {25, "grid"}, {57, "fpp"},
                        {91, "fpp"}, {133, "fpp"}};
  int prop[5], maek[5], ra[5];
  for (int i = 0; i < 5; ++i) {
    const Grid& g = grids[i];
    auto shrink = [&](harness::ExperimentConfig cfg) {
      cfg.measure = bench::scale_time(g.n > 60 ? 600'000 : 1'200'000);
      return cfg;
    };
    const std::string n_label = std::to_string(g.n);
    prop[i] = run.add("proposed/N" + n_label,
                      shrink(heavy(mutex::Algo::kCaoSinghal, g.n, g.quorum)),
                      {kWire, kDelayT});
    maek[i] = run.add("maekawa/N" + n_label,
                      shrink(heavy(mutex::Algo::kMaekawa, g.n, g.quorum)),
                      {kWire, kDelayT});
    ra[i] = run.add("ra/N" + n_label,
                    shrink(heavy(mutex::Algo::kRicartAgrawala, g.n)),
                    {kWire, kDelayT});
  }
  run.execute();

  std::cout << "X2 — scaling with N (saturated closed loop, T=1000, "
               "E=T/10)\n\n";
  Table t({"N", "quorum", "K", "proposed msgs", "maekawa msgs", "RA msgs",
           "proposed delay/T", "maekawa delay/T"});
  for (int i = 0; i < 5; ++i) {
    t.add_row({Table::integer(static_cast<uint64_t>(grids[i].n)),
               grids[i].quorum,
               Table::num(run.first(prop[i]).mean_quorum_size, 0),
               Table::num(run.stat(prop[i], "wire_msgs_per_cs").mean, 1),
               Table::num(run.stat(maek[i], "wire_msgs_per_cs").mean, 1),
               Table::num(run.stat(ra[i], "wire_msgs_per_cs").mean, 1),
               Table::num(run.stat(prop[i], "delay_t").mean, 2),
               Table::num(run.stat(maek[i], "delay_t").mean, 2)});
  }
  t.print(std::cout);
  std::cout << "\nExpected shape: Ricart-Agrawala's column grows linearly "
               "(2(N-1)); the quorum algorithms grow like sqrt(N); the "
               "proposed delay stays in the 1.1-1.4T band at every N while "
               "Maekawa stays at 2T.\n";
  return run.finish(std::cout);
}
