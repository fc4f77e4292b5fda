// Exact heap-allocation counts: the steady state, per-(site, lock) state,
// and the real-threads handoff path (DESIGN.md §7 "What still allocates",
// §8 "Memory per (site, lock)").
//
// Wall-clock cannot resolve a small regression on a shared host, but an
// allocation can be counted exactly. This binary replaces the global
// operator new/delete with counting versions built on malloc/free — the
// reason it is its own executable — and pins three things:
//   * steady state on sim: 0 allocations and 0 bytes over a warmed window
//     of at least 4,000 CS entries, for every algorithm at 1 and 16 locks;
//   * construction and first use: allocations and bytes per (site, lock)
//     for every algorithm, and per workload slot, each as a ceiling;
//   * rt: marginal allocations per CS entry in rt::run_free on 4 pumps.
// The counters are relaxed atomics, so allocations on the rt pump threads
// count too. Each test prints what it measured.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <tuple>

#include "harness/deployment.h"
#include "harness/workload.h"
#include "mutex/factory.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "rt/driver.h"
#include "sim/simulator.h"

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_bytes{0};

void* counted(std::size_t n) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted(std::size_t n, std::align_val_t al) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(a, (n + a - 1) / a * a + (n == 0 ? a : 0));
}

void* counted_or_throw(std::size_t n) {
  if (void* p = counted(n)) return p;
  throw std::bad_alloc();
}

void* counted_or_throw(std::size_t n, std::align_val_t al) {
  if (void* p = counted(n, al)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_or_throw(n); }
void* operator new[](std::size_t n) { return counted_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_or_throw(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_or_throw(n, al);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dqme {
namespace {

using mutex::Algo;

struct Counts {
  uint64_t allocs = 0;
  uint64_t bytes = 0;

  static Counts now() {
    return {g_allocs.load(std::memory_order_relaxed),
            g_bytes.load(std::memory_order_relaxed)};
  }
  Counts operator-(const Counts& o) const {
    return {allocs - o.allocs, bytes - o.bytes};
  }
};

constexpr int kN = 9;  // 3x3 grid: K = 5

mutex::AlgoOptions options(LockId locks) {
  mutex::AlgoOptions o;
  o.num_locks = locks;
  return o;
}

std::string name_of(Algo a) {
  std::string s(mutex::to_string(a));
  for (char& c : s)
    if (c == '-') c = '_';
  return s;
}

// One algorithm on the simulator, N=9 grid, constant delay T=100, closed
// loop with E=10, no metrics — the configuration whose steady state must
// not touch the heap.
struct SimRig {
  SimRig(Algo algo, LockId locks)
      : net(sim, kN, std::make_unique<net::ConstantDelay>(100), 1),
        dep(algo, kN, "grid", options(locks), net),
        wl(sim, dep.sites(), config(locks), nullptr) {}

  static harness::Workload::Config config(LockId locks) {
    harness::Workload::Config c;
    c.mode = harness::Workload::Config::Mode::kClosed;
    c.cs_duration = 10;
    c.num_locks = locks;
    return c;
  }

  // Runs the simulation until `total` demands have completed.
  void run_to(uint64_t total) {
    while (wl.demands_completed() < total) ASSERT_TRUE(sim.step());
  }

  sim::Simulator sim;
  net::Network net;
  harness::Deployment dep;
  harness::Workload wl;
};

// ------------------------------------------------------------ steady state

class SteadyState
    : public ::testing::TestWithParam<std::tuple<Algo, LockId>> {};

TEST_P(SteadyState, WarmedWindowAllocatesNothing) {
  const auto [algo, locks] = GetParam();
  constexpr uint64_t kWarmup = 10'000;
  constexpr uint64_t kWindow = 10'000;
  SimRig rig(algo, locks);
  rig.wl.start();
  rig.run_to(kWarmup);
  const Counts before = Counts::now();
  rig.run_to(kWarmup + kWindow);
  const Counts used = Counts::now() - before;
  std::printf("steady state %-20s locks=%-3d %llu allocations, %llu bytes "
              "over %llu CS\n",
              std::string(mutex::to_string(algo)).c_str(), locks,
              static_cast<unsigned long long>(used.allocs),
              static_cast<unsigned long long>(used.bytes),
              static_cast<unsigned long long>(kWindow));
  EXPECT_EQ(used.allocs, 0u);
  EXPECT_EQ(used.bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgos, SteadyState,
    ::testing::Combine(::testing::ValuesIn(mutex::all_algos()),
                       ::testing::Values(LockId{1}, LockId{16})),
    [](const ::testing::TestParamInfo<SteadyState::ParamType>& info) {
      return name_of(std::get<0>(info.param)) + "_locks" +
             std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------- memory per (site, lock)

// Marginal cost per (site, lock): the difference between a 4097-lock and
// a 1-lock build, over the 9 x 4096 extra pairs.
constexpr LockId kBigTable = 4097;

struct PerPair {
  double allocs;
  double bytes;
};

PerPair per_pair(const Counts& big, const Counts& small, LockId big_locks) {
  const double pairs = kN * static_cast<double>(big_locks - 1);
  return {(static_cast<double>(big.allocs) - static_cast<double>(small.allocs)) /
              pairs,
          (static_cast<double>(big.bytes) - static_cast<double>(small.bytes)) /
              pairs};
}

// Allocations made by building one deployment with `locks` locks.
Counts construction(Algo algo, LockId locks) {
  sim::Simulator sim;
  net::Network net(sim, kN, std::make_unique<net::ConstantDelay>(100), 1);
  const Counts before = Counts::now();
  const harness::Deployment dep(algo, kN, "grid", options(locks), net);
  return Counts::now() - before;
}

// Allocations made after construction by one uncontended CS on every
// (site, lock), issued one at a time: first-touch growth of the
// per-request state (Cao–Singhal's req_set, the vote bits, queues).
Counts first_use(Algo algo, LockId locks) {
  sim::Simulator sim;
  net::Network net(sim, kN, std::make_unique<net::ConstantDelay>(100), 1);
  const harness::Deployment dep(algo, kN, "grid", options(locks), net);
  const Counts before = Counts::now();
  for (LockId l = 0; l < locks; ++l) {
    for (SiteId s = 0; s < kN; ++s) {
      dep.site(s).request_cs(l);
      sim.run();
      dep.site(s).release_cs(l);
      sim.run();
    }
  }
  return Counts::now() - before;
}

struct Ceiling {
  Algo algo;
  // Construction, per (site, lock): the protocol's lock-table row plus the
  // driver-visible LockState, and any heap block a row owns.
  double build_allocs;
  double build_bytes;
  // Growth on first use, per (site, lock).
  double use_allocs;
  double use_bytes;
};

// Measured values, pinned as ceilings (DESIGN.md §8 has the table).
const Ceiling kCeilings[] = {
    {Algo::kLamport, 1, 136, 1, 16},
    {Algo::kRicartAgrawala, 0, 88, 0, 0},
    {Algo::kRoucairolCarvalho, 2, 160, 0, 0},
    {Algo::kMaekawa, 1, 216, 1, 5},
    {Algo::kRaymond, 0, 80, 1, 4},
    {Algo::kSuzukiKasami, 10.0 / 9, 200, 0, 0},  // + site 0's token
    {Algo::kCaoSinghal, 0, 216, 2, 29},
    {Algo::kCaoSinghalNoProxy, 0, 216, 2, 29},
};

class PerLockMemory : public ::testing::TestWithParam<Ceiling> {};

TEST_P(PerLockMemory, ConstructionAndFirstUseStayUnderCeiling) {
  const Ceiling& c = GetParam();
  const PerPair build = per_pair(construction(c.algo, kBigTable),
                                 construction(c.algo, 1), kBigTable);
  constexpr LockId kUsed = 257;
  const PerPair use =
      per_pair(first_use(c.algo, kUsed), first_use(c.algo, 1), kUsed);
  std::printf("per (site, lock) %-20s construction %.3f allocations %.1f B;"
              " first use %.3f allocations %.1f B\n",
              std::string(mutex::to_string(c.algo)).c_str(), build.allocs,
              build.bytes, use.allocs, use.bytes);
  EXPECT_LE(build.allocs, c.build_allocs + 1e-9);
  EXPECT_LE(build.bytes, c.build_bytes + 1e-9);
  EXPECT_LE(use.allocs, c.use_allocs + 1e-9);
  EXPECT_LE(use.bytes, c.use_bytes + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgos, PerLockMemory, ::testing::ValuesIn(kCeilings),
    [](const ::testing::TestParamInfo<Ceiling>& info) {
      return name_of(info.param.algo);
    });

// The workload's (site, lock) slot: 64 bytes, and no heap block of its own
// until a demand queues behind an open request.
TEST(WorkloadSlot, SixtyFourBytesAndNoHeapBlock) {
  const auto build = [](LockId locks) {
    sim::Simulator sim;
    net::Network net(sim, kN, std::make_unique<net::ConstantDelay>(100), 1);
    const harness::Deployment dep(Algo::kRicartAgrawala, kN, "grid",
                                  options(locks), net);
    const Counts before = Counts::now();
    const harness::Workload wl(sim, dep.sites(), SimRig::config(locks),
                               nullptr);
    return Counts::now() - before;
  };
  const Counts big = build(kBigTable);
  const Counts small = build(1);
  // Beyond the slots, a lock table adds one block: the Zipf CDF, 8 B per
  // lock, shared by every site.
  const double cdf_bytes = 8.0 * kBigTable;
  const double slot_bytes =
      (static_cast<double>(big.bytes - small.bytes) - cdf_bytes) /
      (kN * static_cast<double>(kBigTable - 1));
  std::printf("per (site, lock) workload slot %.1f B\n", slot_bytes);
  EXPECT_EQ(big.allocs - small.allocs, 1u);
  EXPECT_LE(slot_bytes, 64.0);
}

// ---------------------------------------------------------------- rt

// Marginal allocations per CS entry on the real-threads backend: the
// difference between a long and a short free run over 4 pumps, so set-up
// and tear-down cancel. No invariant checking (its feed grows with the
// run by design).
double rt_allocs_per_cs(Algo algo, LockId locks) {
  const auto run = [&](uint64_t entries) {
    rt::FreeRunConfig cfg;
    cfg.algo = algo;
    cfg.n = 4;
    cfg.quorum = "majority";
    cfg.num_locks = locks;
    cfg.target_entries = entries;
    cfg.check = false;
    const Counts before = Counts::now();
    const rt::FreeRunResult r = rt::run_free(cfg);
    const Counts used = Counts::now() - before;
    EXPECT_TRUE(r.ok) << r.error;
    return std::pair{static_cast<double>(used.allocs),
                     static_cast<double>(r.cs_entries)};
  };
  const auto [short_allocs, short_cs] = run(2'000);
  const auto [long_allocs, long_cs] = run(22'000);
  const double per_cs = (long_allocs - short_allocs) / (long_cs - short_cs);
  std::printf("rt %-14s locks=%-3d %.4f allocations per CS\n",
              std::string(mutex::to_string(algo)).c_str(), locks, per_cs);
  return per_cs;
}

class RtHandoff : public ::testing::TestWithParam<Algo> {};

TEST_P(RtHandoff, OneLockAllocatesNothingPerCs) {
  EXPECT_LE(rt_allocs_per_cs(GetParam(), 1), 0.001);
}

// With 256 locks Cao–Singhal and Maekawa still read 0.05–0.13 per CS: the
// longer run reaches more first-touch growth in 1,024 (site, lock) pairs'
// queues (ROADMAP item 3). The ceiling has headroom for a TSan build's
// slower, burstier pumps.
TEST_P(RtHandoff, ManyLocksStayUnderCeiling) {
  EXPECT_LE(rt_allocs_per_cs(GetParam(), 256), 0.25);
}

INSTANTIATE_TEST_SUITE_P(
    RtCoreAlgos, RtHandoff,
    ::testing::Values(Algo::kCaoSinghal, Algo::kMaekawa, Algo::kSuzukiKasami),
    [](const ::testing::TestParamInfo<Algo>& info) {
      return name_of(info.param);
    });

}  // namespace
}  // namespace dqme
