// Critical-path attribution tests (src/obs/critpath).
//
// The engine's contract has three legs, each pinned here:
//   * conservation — every extracted path's segments tile the request's
//     [issued, entered] interval EXACTLY (sums equal the span's measured
//     waiting time to the tick), across all eight algorithms, randomized
//     delays, multi-lock tables, and piggybacking on/off;
//   * the golden §3 decomposition — on the Table-1 ping-pong schedule the
//     contended Cao–Singhal path ends in exactly one proxy hop of 1·T
//     (the proxy-forwarded reply, leaving the holder at its exit instant)
//     while Maekawa's ends in two wire hops of 2·T (release -> arbiter ->
//     grant), with the budgets to match, a 2x ratio on one schedule, and
//     no contention read across locks;
//   * determinism — CritStats merged over replicated seeds produce
//     byte-identical JSON for any --jobs split, and attribution stays
//     conservative through §6 crash-and-recovery runs.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "mutex/factory.h"
#include "net/network.h"
#include "obs/critpath.h"
#include "obs/event_log.h"
#include "quorum/factory.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace dqme {
namespace {

using harness::ExperimentConfig;
using harness::ExperimentResult;
using mutex::Algo;
using obs::CritBucket;
using obs::CritPath;
using obs::CritStats;

constexpr Time kT = 1000;

// Per-path structural checks: segments are consecutive half-open
// intervals tiling [issued, entered] — conservation to the tick.
void expect_tiled(const CritPath& p, const std::string& ctx) {
  if (p.waiting() == 0) {
    // Instant entry (e.g. Roucairol–Carvalho re-entering on cached
    // permissions): nothing to tile, nothing to attribute.
    EXPECT_TRUE(p.segments.empty()) << ctx;
    return;
  }
  ASSERT_FALSE(p.segments.empty()) << ctx;
  EXPECT_EQ(p.segments.front().begin, p.issued) << ctx;
  EXPECT_EQ(p.segments.back().end, p.entered) << ctx;
  Time sum = 0;
  for (size_t i = 0; i < p.segments.size(); ++i) {
    EXPECT_LT(p.segments[i].begin, p.segments[i].end) << ctx << " seg " << i;
    if (i > 0) {
      EXPECT_EQ(p.segments[i - 1].end, p.segments[i].begin)
          << ctx << " seg " << i;
    }
    sum += p.segments[i].duration();
  }
  EXPECT_EQ(sum, p.waiting()) << ctx;
}

// ------------------------------------------------------- conservation

// All eight algorithms, jittered delays, 2-lock table, piggybacking on
// and off: every completed request's path must tile exactly, and the
// aggregated residual must be zero.
TEST(CritPathConservation, ExactForEveryAlgorithmAndPiggybackSetting) {
  for (Algo algo : mutex::all_algos()) {
    for (Time piggy : {Time{-1}, kT}) {
      ExperimentConfig cfg =
          testing::heavy_cfg(algo, 9, /*seed=*/7 + static_cast<int>(piggy));
      cfg.delay_kind = ExperimentConfig::DelayKind::kUniform;
      cfg.options.num_locks = 2;
      cfg.workload.num_locks = 2;
      cfg.lock_piggyback_window = piggy;
      cfg.warmup = 20'000;
      cfg.measure = 150'000;
      cfg.critpath = true;
      obs::Recording cap;
      cfg.capture = &cap;
      const std::string ctx = std::string(mutex::to_string(algo)) +
                              " piggy=" + std::to_string(piggy);
      const ExperimentResult r = testing::run_checked(cfg);
      EXPECT_GT(r.critpath.paths(), 0u) << ctx;
      EXPECT_EQ(r.critpath.residual_ticks(), 0u) << ctx;
      const auto paths = obs::extract_critical_paths(cap.events);
      ASSERT_FALSE(paths.empty()) << ctx;
      for (const CritPath& p : paths)
        expect_tiled(p, ctx + " span " + obs::format_span(p.span));
    }
  }
}

// ------------------------------------------------- golden §3 decomposition

// The Table-1 ping-pong rig as an end-to-end fixture: ONLY sites 2 and 7
// of a 3x3 grid (overlapping at arbiters {1, 8}) alternate the CS under
// constant delay T, CS duration 2T (every handoff proxy-eligible — the §3
// transfer always beats the exit). Two drivers, not nine: with more
// contenders the entry can legitimately complete on a direct grant from an
// uncontended arbiter instead of the proxy reply, and the tail is no
// longer the pure Table-1 form. Site 7 drives `lock7`: given a lock of its
// own, the two sites never contend.
struct PingPong {
  std::vector<obs::Event> events;
  std::vector<CritPath> paths;
};

PingPong pingpong(Algo algo, LockId lock7 = kLock0) {
  constexpr Time kE = 2 * kT;
  sim::Simulator sim;
  net::Network net(sim, 9, std::make_unique<net::ConstantDelay>(kT), 1);
  obs::EventLog log(net);
  auto quorums = quorum::make_quorum_system("grid", 9);
  mutex::AlgoOptions options;
  options.num_locks = lock7 + 1;
  std::vector<std::unique_ptr<mutex::MutexSite>> sites;
  for (SiteId i = 0; i < 9; ++i) {
    sites.push_back(mutex::make_site(algo, i, net, quorums.get(), options));
    net.attach(i, sites.back().get());
    log.attach(*sites.back());
  }
  auto drive = [&](SiteId id, LockId lock, auto remaining) {
    auto* s = sites[static_cast<size_t>(id)].get();
    s->on_enter = [&sim, s, lock, remaining](SiteId, LockId) {
      sim.schedule_after(kE, [s, lock, remaining] {
        s->release_cs(lock);
        if (--*remaining > 0) s->request_cs(lock);
      });
    };
    s->request_cs(lock);
  };
  drive(2, kLock0, std::make_shared<int>(6));
  drive(7, lock7, std::make_shared<int>(6));
  sim.run();
  PingPong r;
  r.events = log.events();
  r.paths = obs::extract_critical_paths(r.events);
  return r;
}

std::vector<CritPath> pingpong_paths(Algo algo) {
  return pingpong(algo).paths;
}

// Mean contended tail (exit -> entry) of a run, in ticks.
double mean_tail(const std::vector<CritPath>& paths) {
  double sum = 0;
  size_t n = 0;
  for (const CritPath& p : paths)
    if (p.contended) {
      sum += static_cast<double>(p.tail_delay);
      ++n;
    }
  return n > 0 ? sum / static_cast<double>(n) : 0;
}

TEST(CritPathGolden, CaoSinghalContendedTailIsOneProxyHopOfOneT) {
  const auto paths = pingpong_paths(Algo::kCaoSinghal);
  size_t contended = 0;
  for (const CritPath& p : paths) {
    expect_tiled(p, "cao span " + obs::format_span(p.span));
    if (!p.contended) continue;
    ++contended;
    EXPECT_EQ(p.tail_hops, 1) << obs::format_span(p.span);
    EXPECT_EQ(p.tail_delay, kT) << obs::format_span(p.span);
    // The tail hop is the §3 proxy-forwarded reply itself.
    EXPECT_EQ(p.segments.back().bucket, CritBucket::kProxy)
        << obs::format_span(p.span);
    EXPECT_EQ(p.segments.back().duration(), kT) << obs::format_span(p.span);
  }
  EXPECT_GT(contended, 4u);
}

TEST(CritPathGolden, MaekawaContendedTailIsTwoWireHopsOfTwoT) {
  const auto paths = pingpong_paths(Algo::kMaekawa);
  size_t contended = 0;
  for (const CritPath& p : paths) {
    expect_tiled(p, "maekawa span " + obs::format_span(p.span));
    if (!p.contended) continue;
    ++contended;
    EXPECT_EQ(p.tail_hops, 2) << obs::format_span(p.span);
    EXPECT_EQ(p.tail_delay, 2 * kT) << obs::format_span(p.span);
    EXPECT_EQ(p.in_bucket(CritBucket::kProxy), 0) << obs::format_span(p.span);
  }
  EXPECT_GT(contended, 4u);
}

// Same request schedule, both algorithms: Maekawa's handoff is exactly
// twice Cao–Singhal's.
TEST(CritPathGolden, SameScheduleDelayRatioIsTwo) {
  const double cao = mean_tail(pingpong_paths(Algo::kCaoSinghal));
  const double mae = mean_tail(pingpong_paths(Algo::kMaekawa));
  ASSERT_GT(cao, 0);
  EXPECT_DOUBLE_EQ(mae / cao, 2.0);
}

// The causal decomposition behind 1·T: the tail hop is a proxy grant that
// LEFT THE EXITING HOLDER at its exit instant, on the arbiter's behalf,
// and arrived one delay later — no arbiter on the critical path.
TEST(CritPathGolden, ProxyGrantLeavesTheExitingHolderAtExitTime) {
  const PingPong run = pingpong(Algo::kCaoSinghal);
  size_t contended = 0;
  for (const CritPath& p : run.paths) {
    if (!p.contended) continue;
    ++contended;
    ASSERT_GE(p.segments.size(), 2u);
    const auto& holder = p.segments[p.segments.size() - 2];
    const auto& hop = p.segments.back();
    ASSERT_EQ(holder.bucket, CritBucket::kHolder);
    ASSERT_GE(hop.event, 0);
    const obs::Event& grant = run.events[static_cast<size_t>(hop.event)];
    EXPECT_EQ(obs::edge_of(grant), obs::SpanEdge::kProxyGrant);
    EXPECT_EQ(grant.msg.src, holder.site);
    EXPECT_NE(grant.msg.arbiter, grant.msg.src);
    EXPECT_EQ(grant.msg.sent_at, holder.end);  // the holder's exit instant
    EXPECT_EQ(grant.at, holder.end + kT);
    EXPECT_EQ(grant.at, p.entered);
  }
  EXPECT_GT(contended, 4u);
}

// Maekawa: the same handoff decomposes into release (exiter -> arbiter,
// one T) followed by grant (that arbiter -> enterer, another T) — the
// serial two-hop relay the paper's §5.2 comparison charges 2T for.
TEST(CritPathGolden, MaekawaHandoffIsReleaseThenGrantThroughTheArbiter) {
  const PingPong run = pingpong(Algo::kMaekawa);
  size_t contended = 0;
  for (const CritPath& p : run.paths) {
    if (!p.contended) continue;
    ++contended;
    ASSERT_GE(p.segments.size(), 3u);
    const size_t n = p.segments.size();
    const auto& holder = p.segments[n - 3];
    ASSERT_EQ(holder.bucket, CritBucket::kHolder);
    ASSERT_GE(p.segments[n - 2].event, 0);
    ASSERT_GE(p.segments[n - 1].event, 0);
    const obs::Event& release =
        run.events[static_cast<size_t>(p.segments[n - 2].event)];
    const obs::Event& grant =
        run.events[static_cast<size_t>(p.segments[n - 1].event)];
    EXPECT_EQ(obs::edge_of(release), obs::SpanEdge::kRelease);
    EXPECT_EQ(release.msg.src, holder.site);
    EXPECT_EQ(release.msg.sent_at, holder.end);
    EXPECT_EQ(release.at, holder.end + kT);
    EXPECT_EQ(obs::edge_of(grant), obs::SpanEdge::kGrant);
    EXPECT_EQ(grant.msg.src, release.msg.dst);  // through the same arbiter
    EXPECT_EQ(grant.msg.sent_at, holder.end + kT);
    EXPECT_EQ(grant.at, p.entered);
  }
  EXPECT_GT(contended, 4u);
}

// Locks are independent critical sections: with sites 2 and 7 on locks of
// their own (sharing arbiters 1 and 8), no entry's path crosses the other
// lock's CS. The only holder a path may wait behind is the site's own
// previous tenure on the same lock.
TEST(CritPathGolden, AnExitOnOneLockNeverMakesAnotherLocksEntryContended) {
  for (Algo algo : {Algo::kCaoSinghal, Algo::kMaekawa}) {
    const PingPong run = pingpong(algo, /*lock7=*/1);
    size_t paths_per_lock[2] = {0, 0};
    for (const CritPath& p : run.paths) {
      ++paths_per_lock[p.lock];
      for (const auto& s : p.segments) {
        if (s.bucket != CritBucket::kHolder) continue;
        const obs::Event& exit = run.events[static_cast<size_t>(s.event)];
        EXPECT_EQ(exit.lock, p.lock) << obs::format_span(p.span);
        EXPECT_EQ(exit.site, p.site) << obs::format_span(p.span);
      }
    }
    EXPECT_EQ(paths_per_lock[0], 6u) << mutex::to_string(algo);
    EXPECT_EQ(paths_per_lock[1], 6u) << mutex::to_string(algo);
  }
}

// The aggregate view of the same gate: CritStats over the Cao run puts
// every contended path in the 1-hop bin with a 1.0 T mean tail.
TEST(CritPathGolden, CritStatsAggregatesTheTableOneTail) {
  CritStats cs(kT);
  for (const CritPath& p : pingpong_paths(Algo::kCaoSinghal)) cs.record(p);
  EXPECT_GT(cs.contended(), 0u);
  EXPECT_EQ(cs.residual_ticks(), 0u);
  EXPECT_EQ(cs.tail_hops()[1], cs.contended());
  EXPECT_DOUBLE_EQ(cs.mean_tail_in_t(), 1.0);
  EXPECT_EQ(cs.ticks(CritBucket::kProxy), cs.contended() * kT);
}

// ---------------------------------------------------- crash mid-transfer

// §6 recovery with the engine attached: crash a site mid-run (killing
// in-flight transfers) under fault-tolerant Cao–Singhal. Requests that
// still complete must attribute exactly — recovery detours land in real
// buckets or kOther, never in silently-dropped ticks.
TEST(CritPathFaults, ConservationSurvivesCrashMidTransfer) {
  ExperimentConfig cfg = testing::heavy_cfg(Algo::kCaoSinghal, 9, /*seed=*/5);
  cfg.options.fault_tolerant = true;
  cfg.warmup = 50'000;
  cfg.measure = 400'000;
  cfg.crashes.push_back({cfg.warmup + 100'000, /*victim=*/1});
  cfg.critpath = true;
  obs::Recording cap;
  cfg.capture = &cap;
  const ExperimentResult r = harness::run_experiment(cfg);
  EXPECT_EQ(r.summary.violations, 0u);
  EXPECT_GT(r.protocol_stats.recoveries, 0u);
  EXPECT_GT(r.critpath.paths(), 0u);
  EXPECT_EQ(r.critpath.residual_ticks(), 0u);
  for (const CritPath& p : obs::extract_critical_paths(cap.events))
    expect_tiled(p, "crash run span " + obs::format_span(p.span));
}

// -------------------------------------------------------- determinism

// The merged delay budget must be byte-identical whether the replicated
// seeds ran on one worker or several — the bench "critpath" JSON key's
// --jobs invariance, pinned at the unit level.
TEST(CritPathDeterminism, MergedJsonIsIdenticalAcrossJobsSplits) {
  ExperimentConfig cfg = testing::heavy_cfg(Algo::kCaoSinghal, 9, /*seed=*/3);
  cfg.delay_kind = ExperimentConfig::DelayKind::kUniform;
  cfg.warmup = 20'000;
  cfg.measure = 150'000;
  cfg.critpath = true;
  auto merged_json = [&](int jobs) {
    CritStats merged;
    for (const ExperimentResult& r : harness::replicate(cfg, 3, jobs))
      merged.merge(r.critpath);
    std::ostringstream os;
    merged.write_json(os);
    return os.str();
  };
  const std::string seq = merged_json(1);
  EXPECT_GT(seq.size(), 2u);  // not the disabled "{}"
  EXPECT_EQ(seq, merged_json(3));
}

}  // namespace
}  // namespace dqme
