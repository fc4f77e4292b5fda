// E2 — §5.1/§5.2: messages per CS execution, from light load (3(K-1)) to
// saturation (5(K-1)..6(K-1)), with the per-type breakdown, across N.
//
// Ported to the unified bench::Runner: the whole (N × load) grid is one
// parallel sweep, and the light-load row doubles as the K probe (the mean
// quorum size is load-independent), so no extra probe runs are needed.
#include <iostream>

#include "runner.h"

int main(int argc, char** argv) {
  using namespace dqme;
  using bench::heavy;
  using bench::open_load;
  using harness::ExperimentResult;
  using harness::Table;

  auto opts = bench::parse_bench_flags(argc, argv, "e2_message_complexity");

  const bench::MetricDef kWire{
      "wire_msgs_per_cs",
      [](const ExperimentResult& r) { return r.summary.wire_msgs_per_cs; }};
  const bench::MetricDef kCtrl{
      "ctrl_msgs_per_cs",
      [](const ExperimentResult& r) { return r.summary.ctrl_msgs_per_cs; }};
  const bench::MetricDef kCompleted{
      "completed", [](const ExperimentResult& r) {
        return static_cast<double>(r.summary.completed);
      }};

  bench::Runner run("e2_message_complexity", opts);
  const int ns[] = {9, 25, 49};
  const double loads[] = {0.02, 0.2, 0.5, 0.8};
  // Built with += rather than operator+ chains: GCC 12's -Wrestrict trips a
  // false positive on `"lit" + std::string&&` under heavy inlining.
  auto label = [](int n, const std::string& suffix) {
    std::string s = "N";
    s += std::to_string(n);
    s += "/";
    s += suffix;
    return s;
  };
  int row[3][4], sat[3];
  for (int i = 0; i < 3; ++i) {
    for (int l = 0; l < 4; ++l)
      row[i][l] = run.add(label(ns[i], Table::num(loads[l], 2)),
                          open_load(mutex::Algo::kCaoSinghal, ns[i], loads[l]),
                          {kWire, kCtrl, kCompleted});
    sat[i] = run.add(label(ns[i], "saturated"),
                     heavy(mutex::Algo::kCaoSinghal, ns[i]),
                     {kWire, kCtrl, kCompleted});
  }
  run.execute();

  std::cout << "E2 — messages per CS vs load (proposed algorithm, grid "
               "quorums, T=1000)\n\n";
  for (int i = 0; i < 3; ++i) {
    const double k1 = run.first(row[i][0]).mean_quorum_size - 1;
    std::cout << "N=" << ns[i]
              << "  K=" << run.first(row[i][0]).mean_quorum_size
              << "  paper bands: light 3(K-1)=" << 3 * k1
              << ", heavy 5(K-1)=" << 5 * k1 << " .. 6(K-1)=" << 6 * k1
              << "\n";
    Table t({"load", "msgs/CS (wire)", "ctrl msgs/CS", "of band 3(K-1)",
             "completed"});
    auto add = [&](const std::string& label, int r) {
      const double wire = run.stat(r, "wire_msgs_per_cs").mean;
      t.add_row({label, Table::num(wire, 2),
                 Table::num(run.stat(r, "ctrl_msgs_per_cs").mean, 2),
                 Table::num(wire / (3 * k1), 2) + "x",
                 Table::integer(static_cast<uint64_t>(
                     run.stat(r, "completed").mean))});
    };
    for (int l = 0; l < 4; ++l) add(Table::num(loads[l], 2), row[i][l]);
    add("saturated", sat[i]);
    t.print(std::cout);

    // Per-type breakdown at saturation — the §5.2 accounting.
    const auto& s = run.first(sat[i]);
    Table bt({"type", "per CS", "paper (heavy)"});
    auto per = [&](net::MsgType ty) {
      return Table::num(s.summary.per_type_per_cs[static_cast<size_t>(ty)],
                        2);
    };
    bt.add_row({"request", per(net::MsgType::kRequest), "K-1"});
    bt.add_row({"reply", per(net::MsgType::kReply), "K-1"});
    bt.add_row({"release", per(net::MsgType::kRelease), "K-1"});
    bt.add_row({"transfer", per(net::MsgType::kTransfer),
                "K-1 (mostly piggybacked)"});
    bt.add_row({"inquire", per(net::MsgType::kInquire), "piggybacked"});
    bt.add_row({"fail", per(net::MsgType::kFail), "<= K-1"});
    bt.add_row({"yield", per(net::MsgType::kYield), "<= K-1"});
    bt.print(std::cout);
    std::cout << "\n";
  }
  return run.finish(std::cout);
}
