// rt-vs-sim equivalence: the simulator is the oracle for the real-threads
// backend (DESIGN.md §9). Each case runs a seeded workload on the
// discrete-event simulator, records the global step trace and per-site
// decision logs, replays the trace on rt::Runtime (one real thread per
// site, messages through the actual SPSC rings), and requires the two
// decision-log sets to be byte-identical: same deliveries in the same
// per-site order, same span edges — i.e. the concurrent transport carried
// the exact same protocol execution.
//
// Covers all three benched algorithm families (quorum-RA hybrid, pure
// quorum, token broadcast) plus the §6 crash/recovery path of
// fault-tolerant Cao-Singhal, and a free-run smoke under the merged
// invariant-checker feed (the mode rt_core measures).
#include <gtest/gtest.h>

#include "common/check.h"
#include "rt/driver.h"
#include "rt/oracle.h"
#include "rt/runtime.h"

namespace dqme::rt {
namespace {

void expect_equivalent(const EquivConfig& cfg) {
  OracleResult oracle = run_sim_oracle(cfg);
  ASSERT_TRUE(oracle.ok) << oracle.error;
  ASSERT_GT(oracle.cs_entries, 0u);
  ASSERT_FALSE(oracle.steps.empty());
  const SiteLogs rt_logs = run_rt_replay(cfg, oracle.steps);
  const std::string diff = diff_decision_logs(oracle.logs, rt_logs);
  EXPECT_TRUE(diff.empty()) << diff;
}

TEST(RtEquivalence, CaoSinghalGrid9) {
  EquivConfig cfg;
  cfg.algo = mutex::Algo::kCaoSinghal;
  cfg.n = 9;
  cfg.quorum = "grid";
  cfg.requests_per_site = 10;
  cfg.seed = 7;
  expect_equivalent(cfg);
}

TEST(RtEquivalence, CaoSinghalMultiLock) {
  EquivConfig cfg;
  cfg.algo = mutex::Algo::kCaoSinghal;
  cfg.n = 9;
  cfg.quorum = "grid";
  cfg.num_locks = 4;
  cfg.requests_per_site = 8;
  cfg.seed = 11;
  expect_equivalent(cfg);
}

TEST(RtEquivalence, MaekawaGrid9) {
  EquivConfig cfg;
  cfg.algo = mutex::Algo::kMaekawa;
  cfg.n = 9;
  cfg.quorum = "grid";
  cfg.requests_per_site = 10;
  cfg.seed = 21;
  expect_equivalent(cfg);
}

TEST(RtEquivalence, SuzukiKasami5) {
  EquivConfig cfg;
  cfg.algo = mutex::Algo::kSuzukiKasami;
  cfg.n = 5;
  cfg.requests_per_site = 12;
  cfg.seed = 33;
  expect_equivalent(cfg);
}

// Several seeds across algorithms: the jittered delay model reorders
// cross-channel arrivals differently each seed, so every seed is a fresh
// interleaving the replay must carry faithfully.
TEST(RtEquivalence, SeedSweep) {
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    EquivConfig cfg;
    cfg.algo = seed % 2 == 0 ? mutex::Algo::kCaoSinghal : mutex::Algo::kMaekawa;
    cfg.n = 9;
    cfg.quorum = "grid";
    cfg.requests_per_site = 6;
    cfg.seed = seed;
    expect_equivalent(cfg);
  }
}

// §6 crash/recovery: fault-tolerant Cao-Singhal on the tree coterie (which
// can re-form quorums around a dead node). The victim fails mid-run; every
// live site receives a jittered failure notice, triggering the recovery
// protocol — all of it recorded in the step trace and replayed on real
// threads, including the delivery drops at the dead site.
TEST(RtEquivalence, CaoSinghalFaultTolerantCrash) {
  EquivConfig cfg;
  cfg.algo = mutex::Algo::kCaoSinghal;
  cfg.n = 15;
  cfg.quorum = "tree";
  cfg.fault_tolerant = true;
  cfg.requests_per_site = 8;
  cfg.seed = 5;
  cfg.crash_victim = 3;
  cfg.crash_at = 20'000;
  expect_equivalent(cfg);
}

// Free-run smoke: the contended closed-loop mode rt_core measures, with
// the real-time SafetyProbe and the merged invariant-checker replay. No
// oracle here (free-run interleavings are the hardware's own); safety is
// what the checker asserts.
TEST(RtFreeRun, CheckedSmoke) {
  FreeRunConfig cfg;
  cfg.algo = mutex::Algo::kCaoSinghal;
  cfg.n = 4;
  cfg.quorum = "majority";
  cfg.num_locks = 8;
  cfg.target_entries = 500;
  cfg.max_seconds = 20.0;
  cfg.check = true;
  FreeRunResult res = run_free(cfg);
  ASSERT_TRUE(res.ok) << res.error
                      << (res.reports.empty() ? "" : "\n" + res.reports[0]);
  EXPECT_GE(res.cs_entries, 500u);
  EXPECT_EQ(res.violations, 0u);
  EXPECT_EQ(res.probe_violations, 0u);
  EXPECT_EQ(res.stats.delivered_messages > 0, true);
}

TEST(RtFreeRun, TokenAlgoSmoke) {
  FreeRunConfig cfg;
  cfg.algo = mutex::Algo::kSuzukiKasami;
  cfg.n = 4;
  cfg.num_locks = 8;
  cfg.target_entries = 500;
  cfg.max_seconds = 20.0;
  cfg.check = true;
  FreeRunResult res = run_free(cfg);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.violations, 0u);
  EXPECT_EQ(res.probe_violations, 0u);
}

TEST(Runtime, RejectsASiteCountBelowOneBeforeAllocating) {
  for (int n : {0, -3})
    EXPECT_THROW(Runtime(n, RuntimeOptions{}), CheckError) << n;
}

}  // namespace
}  // namespace dqme::rt
