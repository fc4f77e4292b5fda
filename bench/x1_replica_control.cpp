// X1 (extension, §7) — replica control built on the delay-optimal mutex:
// operation latency and correctness of the replicated store across quorum
// constructions, plus behaviour across a crash. Not a paper table: §7 only
// *claims* the idea extends to replicated data management; this bench
// demonstrates it quantitatively.
//
// Ported to the unified bench::Runner via add_custom: each configuration
// drives its own ReplicaNode stack on the worker pool (the replica layer's
// request/response API doesn't fit run_experiment's workload driver), with
// the exact-count check folded into the runner's exit code.
#include <iostream>

#include "net/network.h"
#include "core/failure_detector.h"
#include "quorum/factory.h"
#include "replica/replicated_store.h"
#include "runner.h"

namespace {

using namespace dqme;

harness::ExperimentResult run_replica(const std::string& quorum_kind, int n,
                                      bool crash_one, uint64_t seed) {
  sim::Simulator sim;
  net::Network net(sim, n, std::make_unique<net::UniformDelay>(500, 1500),
                   16 + seed);  // seed 1 reproduces the historical run
  auto quorums = quorum::make_quorum_system(quorum_kind, n);
  core::FailureDetector detector(net, 2500, 500, 2 + seed);
  core::CaoSinghalSite::Options opt;
  opt.fault_tolerant = true;
  std::vector<std::unique_ptr<replica::ReplicaNode>> nodes;
  for (SiteId i = 0; i < n; ++i) {
    nodes.push_back(
        std::make_unique<replica::ReplicaNode>(i, net, *quorums, opt));
    net.attach(i, nodes.back().get());
    detector.attach(i, nodes.back().get());
  }

  double write_lat = 0, read_lat = 0;
  uint64_t reads = 0;
  int64_t acknowledged = 0;
  const int rounds = 5;
  for (int round = 0; round < rounds; ++round) {
    for (SiteId i = 0; i < n; ++i) {
      const Time start = sim.now();
      nodes[static_cast<size_t>(i)]->update(
          0, [](int64_t v) { return v + 1; },
          [&, start](int64_t version) {
            if (version > 0) {
              ++acknowledged;
              write_lat += static_cast<double>(sim.now() - start);
            }
          });
    }
  }
  SiteId victim = static_cast<SiteId>(n / 2);
  if (crash_one) sim.schedule_at(4000, [&] { detector.crash(victim); });
  sim.run();

  // Reads from every live node.
  int64_t observed = -1;
  bool consistent = true;
  for (SiteId i = 0; i < n; ++i) {
    if (crash_one && i == victim) continue;
    const Time start = sim.now();
    nodes[static_cast<size_t>(i)]->read(0, [&, start](replica::Versioned v) {
      read_lat += static_cast<double>(sim.now() - start);
      ++reads;
      if (observed < 0) observed = v.value;
      consistent = consistent && v.value == observed;
    });
    sim.run();
  }

  harness::ExperimentResult res;
  res.drained_clean = true;  // sim.run() ran the store to quiescence
  res.sim_events = sim.events_executed();
  res.registry.gauge("writes") = static_cast<double>(acknowledged);
  res.registry.gauge("write_lat") =
      acknowledged ? write_lat / static_cast<double>(acknowledged) : 0;
  res.registry.gauge("read_lat") =
      reads ? read_lat / static_cast<double>(reads) : 0;
  res.registry.gauge("exact") =
      (consistent && observed == acknowledged) ? 1 : 0;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  using harness::ExperimentResult;
  using harness::Table;

  auto opts = dqme::bench::parse_bench_flags(argc, argv, "x1_replica_control");

  auto gauge_of = [](const char* name) {
    return [name](const ExperimentResult& r) {
      const double* g = r.registry.find_gauge(name);
      return g != nullptr ? *g : 0;
    };
  };
  const std::vector<dqme::bench::MetricDef> kMetrics{
      {"writes", gauge_of("writes")},
      {"write_lat", gauge_of("write_lat")},
      {"read_lat", gauge_of("read_lat")},
      {"exact", gauge_of("exact")}};

  struct Cfg {
    const char* kind;
    int n;
    bool crash;
  };
  const std::vector<Cfg> cfgs = {{"grid", 16, false}, {"tree", 15, false},
                                 {"majority", 15, false}, {"tree", 15, true},
                                 {"rst:4", 16, true}};

  dqme::bench::Runner run("x1_replica_control", opts);
  std::vector<int> rows;
  for (const Cfg& c : cfgs) {
    std::string label = c.kind;
    label += c.crash ? "/crash" : "/clean";
    rows.push_back(run.add_custom(
        label,
        [c](uint64_t seed) { return run_replica(c.kind, c.n, c.crash, seed); },
        kMetrics));
  }
  run.execute();

  std::cout << "X1 — §7 replica control on the delay-optimal mutex "
               "(atomic counter, T~1000, jittered)\n\n";
  Table t({"quorum", "N", "crash", "writes", "write lat/T (queued)",
           "read lat/T", "exact count"});
  for (size_t i = 0; i < cfgs.size(); ++i) {
    const bool exact = run.stat(rows[i], "exact").mean == 1.0;
    run.require(exact);
    t.add_row({cfgs[i].kind, Table::integer(static_cast<uint64_t>(cfgs[i].n)),
               cfgs[i].crash ? "yes" : "no",
               Table::integer(static_cast<uint64_t>(
                   run.stat(rows[i], "writes").mean)),
               Table::num(run.stat(rows[i], "write_lat").mean / 1000.0, 2),
               Table::num(run.stat(rows[i], "read_lat").mean / 1000.0, 2),
               exact ? "yes" : "NO"});
  }
  t.print(std::cout);
  std::cout << "\nExpected shape: every run counts exactly (no lost "
               "updates); reads cost ~2T (one quorum round trip). Write "
               "latency is dominated by queueing: all N*5 increments are "
               "posted at once and serialize through the global CS, so the "
               "mean wait is ~half the batch times the CS cycle. Crashes "
               "change none of that.\n";
  return run.finish(std::cout);
}
