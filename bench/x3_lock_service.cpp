// X3 (extension) — the sharded lock service at scale: one Cao–Singhal
// proxy fabric of N sites arbitrating a whole table of independent locks
// (LockId-keyed protocol API), under open-loop Zipf-skewed demand.
//
// What the grid shows:
//   * lock-count sweep {1, 16, 256, 4096}: aggregate throughput grows with
//     the table (offered demand tracks the hottest lock's headroom) while
//     per-request latency percentiles stay flat — locks are independent
//     critical sections sharing one message fabric;
//   * Zipf skew {0, 0.9}: a hot-key distribution concentrates contention
//     on a few locks and caps how much demand the same table can absorb;
//   * piggybacking ablation at 4096 locks: staged messages for different
//     locks to the same destination share one wire flight
//     (ExperimentConfig::lock_piggyback_window); the suite *requires* a
//     >1.5x messages-per-flight reduction over the no-piggyback ablation —
//     the wire-cost argument for sharding one fabric instead of running
//     4096 separate instances;
//   * quorum construction at scale: exact finite-projective-plane quorums
//     (K ~ sqrt(N), N=21) against grid quorums (K ~ 2*sqrt(N)) on the same
//     4096-lock service — the paper's Table 1 quorum-size economics pay
//     off once multiplied by a full lock table's traffic.
#include <cmath>
#include <iostream>
#include <string>

#include "runner.h"

int main(int argc, char** argv) {
  using namespace dqme;
  using bench::kT;
  using harness::ExperimentResult;
  using harness::Table;

  auto opts = bench::parse_bench_flags(argc, argv, "x3_lock_service");

  const bench::MetricDef kThroughputT{
      "throughput_per_t",
      [](const ExperimentResult& r) {
        return r.summary.throughput * static_cast<double>(kT);
      }};
  const bench::MetricDef kP50{"waiting_p50_t",
                              [](const ExperimentResult& r) {
                                return r.summary.waiting_p50 /
                                       static_cast<double>(kT);
                              }};
  const bench::MetricDef kP95{"waiting_p95_t",
                              [](const ExperimentResult& r) {
                                return r.summary.waiting_p95 /
                                       static_cast<double>(kT);
                              }};
  const bench::MetricDef kP99{"waiting_p99_t",
                              [](const ExperimentResult& r) {
                                return r.summary.waiting_p99 /
                                       static_cast<double>(kT);
                              }};
  const bench::MetricDef kP999{"waiting_p999_t",
                               [](const ExperimentResult& r) {
                                 return r.summary.waiting_p999 /
                                        static_cast<double>(kT);
                               }};
  const bench::MetricDef kWire{
      "wire_msgs_per_cs",
      [](const ExperimentResult& r) { return r.summary.wire_msgs_per_cs; }};
  // Control messages per wire flight: 1.0 = no coalescing; piggybacking
  // pushes it up by letting staged messages ride open flights.
  const bench::MetricDef kMpf{
      "msgs_per_flight", [](const ExperimentResult& r) {
        return r.summary.wire_msgs_per_cs > 0
                   ? r.summary.ctrl_msgs_per_cs / r.summary.wire_msgs_per_cs
                   : 1.0;
      }};

  // Offered load tracks the hottest lock's headroom: the Zipf weight of
  // lock 0 is 1/H where H = sum_k (k+1)^-skew, so aggregate demand
  // 0.6 * C1 * H keeps the hot lock at ~60% of a single lock's
  // conservative capacity C1 = 1/(2T+E) for every (locks, skew) cell.
  // H is capped so the uniform large-table cells stay simulable; the cap
  // is the "million clients behind N proxies" operating point — demand far
  // beyond any single lock's capacity, spread across the table.
  const auto service = [&](int n, LockId locks, double skew,
                           const std::string& quorum, Time piggy_window) {
    harness::ExperimentConfig cfg;
    cfg.algo = mutex::Algo::kCaoSinghal;
    cfg.n = n;
    cfg.quorum = quorum;
    cfg.mean_delay = kT;
    cfg.workload.mode = harness::Workload::Config::Mode::kOpen;
    cfg.workload.cs_duration = 100;  // E = T/10
    cfg.workload.zipf_skew = skew;
    cfg.options.num_locks = locks;
    double hot_headroom = 0;
    for (LockId k = 0; k < locks; ++k)
      hot_headroom += std::pow(static_cast<double>(k + 1), -skew);
    if (hot_headroom > 40.0) hot_headroom = 40.0;
    const double c1 = 1.0 / static_cast<double>(2 * kT + 100);
    cfg.workload.arrival_rate = 0.6 * c1 * hot_headroom / n;
    cfg.warmup = bench::scale_time(200'000);
    cfg.measure = bench::scale_time(2'000'000);
    cfg.lock_piggyback_window = piggy_window;
    // Hot-set tracking: exact per-lock at <= 64 locks, SpaceSaving top-64
    // heavy-hitter sketch at 4096 — the "is this a convoy or uniform load"
    // question the aggregate metrics can't answer.
    cfg.lock_stats_k = 64;
    return cfg;
  };

  bench::Runner run("x3_lock_service", opts);
  const LockId kLockCounts[] = {1, 16, 256, 4096};
  const double kSkews[] = {0.0, 0.9};
  int cell[4][2];
  for (int li = 0; li < 4; ++li)
    for (int si = 0; si < 2; ++si) {
      const std::string label = "locks" + std::to_string(kLockCounts[li]) +
                                "/zipf" + (si == 0 ? "0" : "0.9");
      cell[li][si] = run.add(
          label, service(25, kLockCounts[li], kSkews[si], "grid", kT),
          {kThroughputT, kP50, kP95, kP99, kP999, kWire, kMpf});
    }
  const int no_piggy =
      run.add("locks4096/zipf0/no-piggyback",
              service(25, 4096, 0.0, "grid", -1), {kWire, kMpf});
  const int q_fpp = run.add("quorum-fpp/N21/locks4096",
                            service(21, 4096, 0.0, "fpp", kT),
                            {kThroughputT, kP95, kWire, kMpf});
  const int q_grid = run.add("quorum-grid/N21/locks4096",
                             service(21, 4096, 0.0, "grid", kT),
                             {kThroughputT, kP95, kWire, kMpf});
  // Attribution row: the causal delay-budget engine on a multi-lock,
  // piggybacked, Zipf-skewed cell — the per-lock budget table lands under
  // "critpath" in --json, splitting the hot lock's wait from the cold tail.
  harness::ExperimentConfig crit_cfg = service(25, 16, 0.9, "grid", kT);
  crit_cfg.critpath = true;
  const int crit_row =
      run.add("locks16/zipf0.9/critpath", crit_cfg, {kThroughputT, kP95});
  run.execute();

  std::cout << "X3 — sharded lock service (cao-singhal, N=25, grid quorums, "
               "T=1000, E=T/10,\n     open-loop arrivals pinned at 60% of "
               "the hottest lock's capacity, piggyback window T)\n\n";
  Table t({"locks", "zipf", "thru/T", "wait p50/T", "p95/T", "p99/T",
           "p999/T", "wire msgs/cs", "msgs/flight"});
  for (int li = 0; li < 4; ++li)
    for (int si = 0; si < 2; ++si) {
      const int r = cell[li][si];
      t.add_row({Table::integer(static_cast<uint64_t>(kLockCounts[li])),
                 si == 0 ? "0" : "0.9",
                 Table::num(run.stat(r, "throughput_per_t").mean, 2),
                 Table::num(run.stat(r, "waiting_p50_t").mean, 2),
                 Table::num(run.stat(r, "waiting_p95_t").mean, 2),
                 Table::num(run.stat(r, "waiting_p99_t").mean, 2),
                 Table::num(run.stat(r, "waiting_p999_t").mean, 2),
                 Table::num(run.stat(r, "wire_msgs_per_cs").mean, 1),
                 Table::num(run.stat(r, "msgs_per_flight").mean, 2)});
    }
  t.print(std::cout);

  // Hot-set tables: the per-lock dimension the aggregate grid averages
  // away. Uniform 4096 locks should show a flat top (counts within noise of
  // each other, heavy evictions); zipf 0.9 should put lock 0 far ahead.
  for (int si = 0; si < 2; ++si) {
    obs::LockStats merged;
    for (const auto& r : run.runs(cell[3][si])) merged.merge(r.lock_stats);
    std::cout << "\nHot locks (4096 locks, zipf " << (si == 0 ? "0" : "0.9")
              << "; " << (merged.exact() ? "exact" : "SpaceSaving top-K")
              << ", tracked " << merged.tracked() << "/" << merged.capacity()
              << ", evictions " << merged.evictions() << "):\n";
    Table h({"lock", "count<=", "count>=", "mean wait/T"});
    for (const auto& ent : merged.top(5)) {
      h.add_row({Table::integer(static_cast<uint64_t>(ent.lock)),
                 Table::integer(ent.count),
                 Table::integer(ent.count - ent.overcount),
                 Table::num(ent.count > 0
                                ? ent.wait_sum /
                                      static_cast<double>(ent.count) / kT
                                : 0,
                            2)});
    }
    h.print(std::cout);
    // The skewed cell must identify the pinned hot lock even through the
    // top-K sketch — that's the tracker's whole job at 4096 locks.
    if (si == 1 && merged.tracked() > 0)
      run.require(merged.top(1).front().lock == 0);
  }

  const double mpf_on = run.stat(cell[3][0], "msgs_per_flight").mean;
  const double mpf_off = run.stat(no_piggy, "msgs_per_flight").mean;
  std::cout << "\nPiggybacking ablation (4096 locks, uniform): "
            << Table::num(mpf_on, 2) << " msgs/flight with piggybacking vs "
            << Table::num(mpf_off, 2) << " without — "
            << Table::num(mpf_on / mpf_off, 2) << "x fewer wire flights "
            << "for the same control traffic (gate: >1.5x).\n";
  run.require(mpf_on > 1.5 * mpf_off);

  std::cout << "\nQuorum construction at scale (N=21, 4096 locks, "
               "uniform):\n";
  Table q({"quorum", "K", "thru/T", "wait p95/T", "wire msgs/cs",
           "msgs/flight"});
  for (const auto& [row, name] :
       {std::pair<int, const char*>{q_fpp, "fpp"}, {q_grid, "grid"}}) {
    q.add_row({name, Table::num(run.first(row).mean_quorum_size, 0),
               Table::num(run.stat(row, "throughput_per_t").mean, 2),
               Table::num(run.stat(row, "waiting_p95_t").mean, 2),
               Table::num(run.stat(row, "wire_msgs_per_cs").mean, 1),
               Table::num(run.stat(row, "msgs_per_flight").mean, 2)});
  }
  q.print(std::cout);

  {
    const obs::CritStats& cp = run.first(crit_row).critpath;
    const double w = static_cast<double>(cp.waiting_ticks());
    std::cout << "\nCritical-path budget (16 locks, zipf 0.9, piggyback T): "
              << cp.paths() << " paths, " << cp.contended() << " contended";
    if (w > 0) {
      auto pct = [&](obs::CritBucket b) {
        return Table::num(100.0 * static_cast<double>(cp.ticks(b)) / w, 1);
      };
      std::cout << "; wire " << pct(obs::CritBucket::kWire) << "% queue "
                << pct(obs::CritBucket::kQueue) << "% holder "
                << pct(obs::CritBucket::kHolder) << "% proxy "
                << pct(obs::CritBucket::kProxy) << "% other "
                << pct(obs::CritBucket::kOther) << "%";
    }
    std::cout << "\n";
    // Conservation must survive multi-lock piggybacked traffic too.
    run.require(cp.residual_ticks() == 0);
  }

  std::cout << "\nExpected shape: latency percentiles stay in the same band "
               "across three orders of magnitude of lock count while "
               "absorbed throughput grows; zipf 0.9 rows carry less "
               "aggregate demand at the same hot-lock utilization; fpp's "
               "sqrt(N) quorums cut wire messages per CS vs grid at equal "
               "service quality.\n";
  return run.finish(std::cout);
}
