// Micro-benchmarks for the substrates: event queue, network send/deliver,
// quorum construction, and a whole protocol step. These bound the
// simulator's own cost so experiment runtimes are attributable to protocol
// behaviour, not harness overhead.
//
// The headline section measures the slab-allocated event store on a
// protocol-shaped churn load (timer chains + cancelled timeouts with
// network-sized captures), then whole saturated experiments per algorithm.
// Results land in BENCH_micro_core.json via --json so the events/sec
// trajectory is tracked across commits. The google-benchmark suite still
// runs afterwards (skipped under --quick).
#include <benchmark/benchmark.h>

#include <chrono>

#include "net/network.h"
#include "core/cao_singhal.h"
#include "harness/experiment.h"
#include "quorum/factory.h"
#include "runner.h"

namespace {

using namespace dqme;

// Protocol-shaped churn: every fired event re-arms itself (a timer chain,
// like workload think-time and delivery events) carrying a network-sized
// capture, and arms a timeout that is then cancelled before firing (like
// retransmit / failure-detection timers) — the cancel-heavy pattern the
// tombstone compaction exists for. The chain closure captures 40 bytes,
// the size class of a real delivery closure: inline in the slab store.
struct ChurnPayload {  // ~ what a delivery closure carries
  void* net;
  uint64_t flight;
  uint64_t seq;
  uint64_t salt;
};

struct Churner {
  sim::Simulator& sim;
  uint64_t target;
  uint64_t fired = 0;
  sim::Simulator::EventId timeout{};
  bool has_timeout = false;

  void arm() {
    ChurnPayload p{&sim, fired, fired * 7919, ~fired};
    sim.schedule_after(1 + (fired % 97), [this, p] {
      benchmark::DoNotOptimize(p);
      ++fired;
      if (has_timeout) sim.cancel(timeout);
      if (fired < target) {
        timeout = sim.schedule_after(10'000, [] {});
        has_timeout = true;
        arm();
      }
    });
  }
};

uint64_t churn(sim::Simulator& sim, uint64_t target_events) {
  Churner c{sim, target_events};
  c.arm();
  sim.run();
  return c.fired;
}

double measure_events_per_sec(uint64_t events, int repeats) {
  double best = 0;
  for (int i = 0; i < repeats; ++i) {
    sim::Simulator sim;
    const auto start = std::chrono::steady_clock::now();
    const uint64_t fired = churn(sim, events);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    DQME_CHECK(fired == events);
    const double eps = static_cast<double>(sim.events_executed()) / secs;
    if (eps > best) best = eps;
  }
  return best;
}

// Profiling view of the slab store under the same churn load, harvested
// from the simulator's unconditional counters (sim::Simulator profiling
// accessors) — the numbers BENCH_micro_core.json tracks alongside raw
// events/sec: how deep the heap got, how much of the slab was ever
// committed, and how hard the tombstone-compaction machinery worked.
struct SlabProfile {
  uint64_t scheduled = 0;
  uint64_t cancelled = 0;
  uint64_t compactions = 0;
  size_t peak_heap = 0;
  size_t slab_capacity = 0;
  double tombstone_ratio = 0;
};

SlabProfile profile_slab_churn(uint64_t events) {
  sim::Simulator sim;
  churn(sim, events);
  SlabProfile p;
  p.scheduled = sim.scheduled_total();
  p.cancelled = sim.cancelled_total();
  p.compactions = sim.compactions();
  p.peak_heap = sim.peak_heap();
  p.slab_capacity = sim.slab_capacity();
  p.tombstone_ratio = sim.tombstone_ratio();
  return p;
}

// --- google-benchmark suite (the per-substrate breakdown) -------------

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    uint64_t sum = 0;
    for (int i = 0; i < events; ++i)
      sim.schedule_at((i * 7919) % 100000, [&sum] { ++sum; });
    sim.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1000)->Arg(100000);

void BM_SimulatorChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    benchmark::DoNotOptimize(churn(sim, 100000));
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_SimulatorChurn);

void BM_NetworkSendDeliver(benchmark::State& state) {
  struct Sink final : net::NetSite {
    uint64_t n = 0;
    void on_message(const net::Message&, LockId) override { ++n; }
  };
  for (auto _ : state) {
    sim::Simulator sim;
    net::Network net(sim, 2, std::make_unique<net::ConstantDelay>(10), 1);
    Sink sink;
    net.attach(0, &sink);
    net.attach(1, &sink);
    for (SeqNum i = 0; i < 1000; ++i)
      net.send(0, 1, net::make_request(ReqId{i + 1, 0}));
    sim.run();
    benchmark::DoNotOptimize(sink.n);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_NetworkSendDeliver);

void BM_QuorumConstruction(benchmark::State& state, const char* kind,
                           int n) {
  for (auto _ : state) {
    auto qs = quorum::make_quorum_system(kind, n);
    double k = 0;
    for (SiteId i = 0; i < qs->num_sites(); ++i)
      k += static_cast<double>(qs->quorum_for(i).size());
    benchmark::DoNotOptimize(k);
  }
}
BENCHMARK_CAPTURE(BM_QuorumConstruction, grid_2500, "grid", 2500);
BENCHMARK_CAPTURE(BM_QuorumConstruction, fpp_307, "fpp", 307);
BENCHMARK_CAPTURE(BM_QuorumConstruction, tree_1023, "tree", 1023);
BENCHMARK_CAPTURE(BM_QuorumConstruction, hqc_729, "hqc", 729);

void BM_TreeQuorumUnderFailures(benchmark::State& state) {
  auto qs = quorum::make_quorum_system("tree", 1023);
  Rng rng(3);
  std::vector<bool> alive(1023);
  for (size_t i = 0; i < alive.size(); ++i) alive[i] = rng.bernoulli(0.9);
  for (auto _ : state) {
    auto q = qs->quorum_for_alive(static_cast<SiteId>(rng.uniform_int(0, 1022)),
                                  alive);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_TreeQuorumUnderFailures);

// One complete saturated simulation second — the unit of all E-benches.
void BM_EndToEndSimulatedSecond(benchmark::State& state) {
  for (auto _ : state) {
    harness::ExperimentConfig cfg;
    cfg.algo = mutex::Algo::kCaoSinghal;
    cfg.n = 25;
    cfg.warmup = 0;
    cfg.measure = 1'000'000;  // 1000 x T
    auto r = harness::run_experiment(cfg);
    benchmark::DoNotOptimize(r.summary.completed);
  }
}
BENCHMARK(BM_EndToEndSimulatedSecond)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  auto opts = dqme::bench::parse_bench_flags(argc, argv, "micro_core");

  const auto wall_start = std::chrono::steady_clock::now();
  const uint64_t events = opts.quick ? 200'000 : 1'000'000;
  const int repeats = opts.quick ? 2 : 3;
  const double slab = measure_events_per_sec(events, repeats);

  // End-to-end: one saturated simulated second per algorithm, fixed N and
  // seed. cao_singhal is the headline row (e2e_events_per_sec, the number
  // the perf gate tracks); maekawa and suzuki_kasami pin the competitors so
  // a hot-path regression that only hits one protocol family still shows.
  struct E2eRow {
    const char* name;
    dqme::mutex::Algo algo;
    double eps = 0;
    dqme::harness::ExperimentResult result;
  };
  E2eRow e2e_rows[] = {
      {"cao_singhal", dqme::mutex::Algo::kCaoSinghal, 0, {}},
      {"maekawa", dqme::mutex::Algo::kMaekawa, 0, {}},
      {"suzuki_kasami", dqme::mutex::Algo::kSuzukiKasami, 0, {}},
  };
  dqme::harness::ExperimentConfig cfg;
  cfg.n = 25;
  cfg.warmup = 0;
  cfg.measure = opts.quick ? 250'000 : 1'000'000;
  // Best-of-2 even in quick mode: these rows are gated by check_perf.py and
  // a single cold quick run is noisy enough to brush the gate floor.
  const int e2e_repeats = opts.quick ? 2 : 3;
  for (E2eRow& row : e2e_rows) {
    cfg.algo = row.algo;
    for (int i = 0; i < e2e_repeats; ++i) {
      auto res = dqme::harness::run_experiment(cfg);
      const double eps =
          static_cast<double>(res.sim_events) / (res.wall_ms / 1000.0);
      if (eps > row.eps) {
        row.eps = eps;
        row.result = std::move(res);
      }
    }
  }
  const auto& r = e2e_rows[0].result;  // cao_singhal, the headline
  const double e2e_eps = e2e_rows[0].eps;
  cfg.algo = dqme::mutex::Algo::kCaoSinghal;

  // Lock-table hot path: the x3 service shape (256 locks, open-loop uniform
  // arrivals, piggybacking on) as its own events/s row, so regressions in
  // the per-lock state and flight-coalescing code paths show up even when
  // the single-lock headline is unaffected. check_perf.py gates it like the
  // headline row.
  dqme::harness::ExperimentConfig lock_cfg = cfg;
  lock_cfg.options.num_locks = 256;
  lock_cfg.workload.mode = dqme::harness::Workload::Config::Mode::kOpen;
  lock_cfg.workload.cs_duration = 100;
  lock_cfg.workload.arrival_rate = 0.6 * 40.0 / (2100.0 * 25);
  lock_cfg.lock_piggyback_window = 1000;
  double locks256_eps = 0;
  // Two repeats even in quick mode: this row's shorter window makes a
  // single cold run noisy enough to brush the perf-gate floor.
  const int lock_repeats = e2e_repeats < 2 ? 2 : e2e_repeats;
  for (int i = 0; i < lock_repeats; ++i) {
    auto res = dqme::harness::run_experiment(lock_cfg);
    const double eps =
        static_cast<double>(res.sim_events) / (res.wall_ms / 1000.0);
    if (eps > locks256_eps) locks256_eps = eps;
  }

  // Slab profiling counters under the churn load, plus the network's pool
  // recycling rate from the e2e run's registry: acquired >> pool size means
  // flight slots are being reused, not grown.
  const SlabProfile prof = profile_slab_churn(events);
  const double flights_acquired =
      static_cast<double>(*r.registry.find_counter("net.flights.acquired"));
  const double flight_pool = *r.registry.find_gauge("net.flights.pool");
  const double flight_recycle_rate =
      flights_acquired > 0 ? 1.0 - flight_pool / flights_acquired : 0;

  dqme::bench::maybe_write_trace(opts, cfg);

  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();

  std::cout << "micro_core — slab event store (" << events
            << "-event churn, best of " << repeats << ")\n"
            << "  slab:     " << dqme::harness::Table::num(slab / 1e6, 2)
            << "M events/s\n"
            << "  end-to-end experiment (best of " << e2e_repeats << "):\n";
  for (const E2eRow& row : e2e_rows)
    std::cout << "    " << row.name << ": "
              << dqme::harness::Table::num(row.eps / 1e6, 2)
              << "M events/s\n";
  std::cout << "    cao_singhal/256 locks: "
            << dqme::harness::Table::num(locks256_eps / 1e6, 2)
            << "M events/s\n";
  std::cout << "  slab profile (churn): peak_heap=" << prof.peak_heap
            << " slab_capacity=" << prof.slab_capacity
            << " compactions=" << prof.compactions << " tombstone_ratio="
            << dqme::harness::Table::num(prof.tombstone_ratio, 3)
            << "\n  flight recycle rate (e2e): "
            << dqme::harness::Table::num(flight_recycle_rate, 4) << "\n";

  dqme::bench::write_bench_json(
      opts, slab > 0, wall_ms, slab,
      {{"events_per_sec_slab", slab, 0},
       {"e2e_events_per_sec", e2e_eps, 0},
       {"e2e_events_per_sec_cao_singhal", e2e_rows[0].eps, 0},
       {"e2e_events_per_sec_maekawa", e2e_rows[1].eps, 0},
       {"e2e_events_per_sec_suzuki_kasami", e2e_rows[2].eps, 0},
       {"e2e_events_per_sec_locks256", locks256_eps, 0},
       {"slab_scheduled", static_cast<double>(prof.scheduled), 0},
       {"slab_cancelled", static_cast<double>(prof.cancelled), 0},
       {"slab_peak_heap", static_cast<double>(prof.peak_heap), 0},
       {"slab_capacity", static_cast<double>(prof.slab_capacity), 0},
       {"slab_compactions", static_cast<double>(prof.compactions), 0},
       {"slab_tombstone_ratio", prof.tombstone_ratio, 0},
       {"flight_recycle_rate", flight_recycle_rate, 0}},
      &r.registry);

  if (opts.quick) return 0;  // CI smoke: skip the full microbench suite
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
