// E1 — reproduces the paper's Table 1: message complexity and
// synchronization delay of the proposed algorithm against Lamport,
// Ricart-Agrawala, Maekawa, Suzuki-Kasami and Raymond.
//
// Analytic columns restate the paper; measured columns come from the
// simulator at N = 25 (K = 9 with grid quorums), T = 1000 ticks:
// light load = rare Poisson arrivals, heavy load = closed-loop saturation.
//
// Ported to the unified bench::Runner: all (algorithm × regime × seed)
// runs execute as one parallel sweep (--jobs=N), each metric aggregated
// over --seeds=K replications.
#include <iostream>

#include "runner.h"

int main(int argc, char** argv) {
  using namespace dqme;
  using bench::heavy;
  using bench::open_load;
  using harness::ExperimentResult;
  using harness::Table;

  auto opts = bench::parse_bench_flags(argc, argv, "e1_table1");
  const int n = 25;
  struct AlgoRow {
    mutex::Algo algo;
    const char* analytic_msgs;
    const char* analytic_delay;
    int light = 0, hv = 0;  // runner row indices
  };
  AlgoRow rows[] = {
      {mutex::Algo::kLamport, "3(N-1)", "T"},
      {mutex::Algo::kRicartAgrawala, "2(N-1)", "T"},
      {mutex::Algo::kRoucairolCarvalho, "0..2(N-1), avg N-1", "T"},
      {mutex::Algo::kMaekawa, "3(K-1)..5(K-1)", "2T"},
      {mutex::Algo::kSuzukiKasami, "N", "T"},
      {mutex::Algo::kRaymond, "O(log N)", "O(log N) T"},
      {mutex::Algo::kCaoSinghal, "3(K-1)..6(K-1)", "T"},
  };

  const bench::MetricDef kMsgs{
      "msgs/cs", [](const ExperimentResult& r) {
        return r.summary.wire_msgs_per_cs;
      }};
  const bench::MetricDef kDelay{
      "delay/T", [](const ExperimentResult& r) { return r.sync_delay_in_t; }};

  bench::Runner run("e1_table1", opts);
  for (AlgoRow& row : rows) {
    const std::string name{mutex::to_string(row.algo)};
    row.light = run.add(name + "/light", open_load(row.algo, n, 0.05),
                        {kMsgs});
    row.hv = run.add(name + "/heavy", heavy(row.algo, n), {kMsgs, kDelay});
  }
  run.execute();

  std::cout << "E1 / Table 1 — message complexity & synchronization delay"
            << " (N=" << n << ", K=9, T=1000 ticks)\n\n";
  Table t({"algorithm", "paper: msgs", "meas. light", "meas. heavy",
           "paper: delay", "meas. delay/T"});
  for (const AlgoRow& row : rows) {
    t.add_row({std::string(mutex::to_string(row.algo)), row.analytic_msgs,
               Table::num(run.stat(row.light, "msgs/cs").mean, 1),
               Table::num(run.stat(row.hv, "msgs/cs").mean, 1),
               row.analytic_delay,
               Table::num(run.stat(row.hv, "delay/T").mean, 2)});
  }
  t.print(std::cout);
  std::cout << "\nShape checks: proposed has the lowest heavy-load delay of "
               "the permission-based algorithms while keeping O(K) "
               "messages; Maekawa pays ~2x the delay at the same message "
               "budget.\n";
  return run.finish(std::cout);
}
