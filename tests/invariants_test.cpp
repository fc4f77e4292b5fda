// The online InvariantChecker: clean protocol runs stay quiet (including
// across crashes and under the parallel sweep), scripted violations are
// detected, and the Table 1 analytic model agrees with measurement.
#include <gtest/gtest.h>

#include "net/network.h"
#include "harness/sweep.h"
#include "harness/workload.h"
#include "mutex/factory.h"
#include "obs/invariants.h"
#include "obs/model.h"
#include "obs/span.h"
#include "quorum/factory.h"
#include "test_util.h"

namespace dqme {
namespace {

using harness::ExperimentConfig;
using harness::ExperimentResult;
using mutex::Algo;

ExperimentConfig checked(ExperimentConfig cfg) {
  cfg.check_invariants = true;
  return cfg;
}

// ----------------------------------------------------- clean runs stay quiet

TEST(InvariantChecker, CleanOnCaoSinghalUnderSaturation) {
  const ExperimentResult r = testing::run_checked(
      checked(testing::heavy_cfg(Algo::kCaoSinghal, 25, 7)));
  EXPECT_EQ(r.invariant_violations, 0u)
      << (r.invariant_reports.empty() ? "" : r.invariant_reports.front());
  EXPECT_GT(r.invariant_checks, 1000u);
}

TEST(InvariantChecker, CleanOnMaekawa) {
  const ExperimentResult r = testing::run_checked(
      checked(testing::heavy_cfg(Algo::kMaekawa, 25, 7)));
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_GT(r.invariant_checks, 1000u);
}

TEST(InvariantChecker, CleanOnBroadcastBaseline) {
  // Non-quorum algorithms get FIFO/conservation/liveness checks only; the
  // arbiter rules would false-positive on broadcast grants and must be off.
  const ExperimentResult r = testing::run_checked(
      checked(testing::heavy_cfg(Algo::kRicartAgrawala, 9, 7)));
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_GT(r.invariant_checks, 0u);
}

TEST(InvariantChecker, CleanAcrossCrashRecovery) {
  ExperimentConfig cfg = checked(
      testing::heavy_cfg(Algo::kCaoSinghal, 15, 5, "tree"));
  cfg.options.fault_tolerant = true;
  cfg.measure = 1'000'000;
  cfg.crashes = {{300'000, 1}, {600'000, 9}};
  const ExperimentResult r = harness::run_experiment(cfg);
  EXPECT_EQ(r.summary.violations, 0u);
  EXPECT_EQ(r.invariant_violations, 0u)
      << (r.invariant_reports.empty() ? "" : r.invariant_reports.front());
}

TEST(InvariantChecker, DeterministicAcrossRepeatRuns) {
  const ExperimentConfig cfg =
      checked(testing::heavy_cfg(Algo::kCaoSinghal, 25, 11));
  const ExperimentResult a = harness::run_experiment(cfg);
  const ExperimentResult b = harness::run_experiment(cfg);
  EXPECT_EQ(a.invariant_checks, b.invariant_checks);
  EXPECT_EQ(a.invariant_violations, b.invariant_violations);
}

// Uniform delays in [T/2, 3T/2] reorder grants, releases and forwarded
// replies across channels; the permission ledger must follow every quorum
// shape the protocols ship with, not just the grid.
TEST(InvariantChecker, CleanUnderUniformDelayAcrossQuorums) {
  struct Case {
    Algo algo;
    int n;
    const char* quorum;
    uint64_t seed;
  };
  std::vector<Case> cases;
  for (uint64_t seed = 1; seed <= 10; ++seed)
    cases.push_back({Algo::kCaoSinghal, 9, "grid", seed});
  cases.push_back({Algo::kCaoSinghal, 13, "fpp", 7});
  cases.push_back({Algo::kCaoSinghal, 9, "majority", 7});
  cases.push_back({Algo::kMaekawa, 16, "grid", 5});
  for (const Case& c : cases) {
    ExperimentConfig cfg =
        checked(testing::heavy_cfg(c.algo, c.n, c.seed, c.quorum));
    cfg.delay_kind = ExperimentConfig::DelayKind::kUniform;
    cfg.workload.max_cs_per_site = 25;
    const ExperimentResult r = testing::run_checked(cfg);
    EXPECT_EQ(r.invariant_violations, 0u)
        << mutex::to_string(c.algo) << ' ' << c.quorum << " seed "
        << c.seed << ": " << r.invariant_reports.front();
    EXPECT_GT(r.invariant_checks, 1000u);
  }
}

TEST(InvariantChecker, SweepGatesOnViolationsAcrossWorkers) {
  // The parallel sweep runs checked configs on worker threads; a clean
  // matrix must come back clean through that path too.
  std::vector<ExperimentConfig> cfgs;
  for (uint64_t s = 1; s <= 4; ++s) {
    ExperimentConfig cfg = checked(testing::heavy_cfg(
        s % 2 ? Algo::kCaoSinghal : Algo::kMaekawa, 25, s));
    cfg.measure = 200'000;
    cfgs.push_back(cfg);
  }
  harness::SweepRunner sweep(harness::SweepOptions{.jobs = 2});
  const auto results = sweep.run(cfgs);
  ASSERT_EQ(results.size(), cfgs.size());
  for (const ExperimentResult& r : results)
    EXPECT_EQ(r.invariant_violations, 0u);
}

// ------------------------------------------------------- scripted negatives

struct Script {
  sim::Simulator sim;
  net::Network net{sim, 4, std::make_unique<net::UniformDelay>(500, 1500), 1};
  obs::InvariantChecker checker;

  explicit Script(obs::InvariantOptions opts = {}) : checker(net, opts) {}

  net::Message wire(net::Message m, SiteId src, SiteId dst, Time sent_at) {
    m.src = src;
    m.dst = dst;
    m.sent_at = sent_at;
    m.span = span_of(m.req);
    return m;
  }
};

const ReqId kR1{10, 1};
const ReqId kR2{20, 2};

TEST(InvariantChecker, FlagsDoubleEntry) {
  Script s;
  s.checker.on_span_issue(1, kLock0,span_of(kR1), 0);
  s.checker.on_span_issue(2, kLock0,span_of(kR2), 0);
  s.checker.on_span_enter(1, kLock0,span_of(kR1), 10);
  s.checker.on_span_enter(2, kLock0,span_of(kR2), 11);
  EXPECT_EQ(s.checker.violations(), 1u);
  EXPECT_NE(s.checker.reports().front().find("safety"), std::string::npos);
}

// Different locks are independent critical sections: simultaneous entry on
// lock 0 and lock 3 is legal, and a genuine double entry on lock 3 is
// reported with the lock named in the violation text.
TEST(InvariantChecker, LocksAreIndependentCriticalSections) {
  Script s;
  s.checker.on_span_issue(1, kLock0, span_of(kR1), 0);
  s.checker.on_span_issue(2, LockId{3}, span_of(kR2), 0);
  s.checker.on_span_enter(1, kLock0, span_of(kR1), 10);
  s.checker.on_span_enter(2, LockId{3}, span_of(kR2), 11);
  EXPECT_EQ(s.checker.violations(), 0u);
  // Now a real collision inside lock 3.
  s.checker.on_span_issue(1, LockId{3}, span_of(kR1), 12);
  s.checker.on_span_enter(1, LockId{3}, span_of(kR1), 13);
  EXPECT_EQ(s.checker.violations(), 1u);
  EXPECT_NE(s.checker.reports().front().find("safety"), std::string::npos);
  EXPECT_NE(s.checker.reports().front().find("[lock 3]"), std::string::npos);
}

TEST(InvariantChecker, PermissionLedgerIsKeyedPerLock) {
  Script s;
  s.checker.on_span_issue(1, kLock0, span_of(kR1), 0);
  s.checker.on_span_issue(2, LockId{5}, span_of(kR2), 0);
  // Arbiter 0 grants site 1 on lock 0 and site 2 on lock 5 concurrently:
  // two locks, two independent permissions, no violation.
  s.checker.observe(s.wire(net::make_reply(0, kR1), 0, 1, 5), kLock0, 10);
  s.checker.observe(s.wire(net::make_reply(0, kR2), 0, 2, 6), LockId{5}, 11);
  EXPECT_EQ(s.checker.violations(), 0u)
      << s.checker.reports().front();
  // Now a true double grant inside lock 5: site 1 asks for lock 5 too, and
  // arbiter 0 grants it while site 2 still holds lock 5's permission.
  s.checker.on_span_issue(1, LockId{5}, span_of(kR1), 12);
  s.checker.observe(s.wire(net::make_reply(0, kR1), 0, 1, 13), LockId{5}, 18);
  EXPECT_EQ(s.checker.violations(), 1u);
  ASSERT_FALSE(s.checker.reports().empty());
  EXPECT_NE(s.checker.reports().front().find("permission"),
            std::string::npos);
  EXPECT_NE(s.checker.reports().front().find("[lock 5]"), std::string::npos);
}

TEST(InvariantChecker, FlagsDoubleGrant) {
  Script s;
  s.checker.on_span_issue(1, kLock0,span_of(kR1), 0);
  s.checker.on_span_issue(2, kLock0,span_of(kR2), 0);
  s.checker.observe(s.wire(net::make_reply(0, kR1), 0, 1, 5), 10);
  EXPECT_EQ(s.checker.violations(), 0u);
  s.checker.observe(s.wire(net::make_reply(0, kR2), 0, 2, 6), 11);
  EXPECT_EQ(s.checker.violations(), 1u);
  EXPECT_NE(s.checker.reports().front().find("permission"),
            std::string::npos);
}

TEST(InvariantChecker, FlagsForwardWithoutHolding) {
  Script s;
  s.checker.on_span_issue(2, kLock0,span_of(kR2), 0);
  // Site 3 proxies arbiter 0's reply without ever holding its permission.
  s.checker.observe(s.wire(net::make_reply(0, kR2), 3, 2, 5), 10);
  EXPECT_EQ(s.checker.violations(), 1u);
  EXPECT_NE(s.checker.reports().front().find("forwarded"),
            std::string::npos);
}

TEST(InvariantChecker, FlagsLostTransferAtFinish) {
  Script s;
  s.checker.on_span_issue(1, kLock0,span_of(kR1), 0);
  s.checker.on_span_issue(2, kLock0,span_of(kR2), 0);
  s.checker.observe(s.wire(net::make_reply(0, kR1), 0, 1, 5), 10);
  s.checker.on_span_enter(1, kLock0,span_of(kR1), 12);
  s.checker.observe(s.wire(net::make_transfer(kR2, 0, kR1), 0, 1, 14), 18);
  s.checker.on_span_exit(1, kLock0,span_of(kR1), 25);  // never forwards or releases
  EXPECT_EQ(s.checker.violations(), 0u);
  s.checker.finish(60);
  EXPECT_EQ(s.checker.violations(), 1u);
  EXPECT_NE(s.checker.reports().front().find("never discharged"),
            std::string::npos);
}

// The holder's parameterized release (to the arbiter) and its forwarded
// reply (to the next grantee) travel on different channels, so either may
// land first; both orders are a legal handoff.
TEST(InvariantChecker, TransferDischargedByProxyReplyIsClean) {
  for (bool release_first : {true, false}) {
    Script s;
    s.checker.on_span_issue(1, kLock0, span_of(kR1), 0);
    s.checker.observe(s.wire(net::make_reply(0, kR1), 0, 1, 5), 10);
    s.checker.on_span_enter(1, kLock0, span_of(kR1), 12);
    s.checker.on_span_issue(2, kLock0, span_of(kR2), 15);
    s.checker.observe(s.wire(net::make_transfer(kR2, 0, kR1), 0, 1, 16), 20);
    s.checker.on_span_exit(1, kLock0, span_of(kR1), 25);
    const net::Message release =
        s.wire(net::make_release(kR1, kR2), 1, 0, 25);
    const net::Message forward = s.wire(net::make_reply(0, kR2), 1, 2, 25);
    s.checker.observe(release_first ? release : forward, 28);
    s.checker.observe(release_first ? forward : release, 30);
    s.checker.on_span_enter(2, kLock0, span_of(kR2), 31);
    s.checker.on_span_exit(2, kLock0, span_of(kR2), 40);
    s.checker.observe(s.wire(net::make_release(kR2, ReqId{}), 2, 0, 40), 45);
    s.checker.finish(50);
    EXPECT_EQ(s.checker.violations(), 0u)
        << "release_first=" << release_first << ": "
        << s.checker.reports().front();
    EXPECT_GT(s.checker.checks(), 0u);
  }
}

TEST(InvariantChecker, FlagsFifoInversion) {
  Script s;
  s.checker.observe(s.wire(net::make_request(kR1), 1, 0, 100), 110);
  s.checker.observe(s.wire(net::make_request(kR1), 1, 0, 50), 115);
  EXPECT_EQ(s.checker.violations(), 1u);
  EXPECT_NE(s.checker.reports().front().find("fifo"), std::string::npos);
}

TEST(InvariantChecker, FlagsStalledRequestAtFinish) {
  obs::InvariantOptions opts;
  opts.liveness_bound = 1000;
  Script s(opts);
  s.checker.on_span_issue(1, kLock0,span_of(kR1), 0);
  s.checker.finish(5000);
  EXPECT_EQ(s.checker.violations(), 1u);
  EXPECT_NE(s.checker.reports().front().find("liveness"), std::string::npos);
}

TEST(InvariantChecker, CrashedOwnersStallIsWrittenOff) {
  obs::InvariantOptions opts;
  opts.liveness_bound = 1000;
  Script s(opts);
  s.checker.on_span_issue(1, kLock0,span_of(kR1), 0);
  s.checker.on_crash(1);
  s.checker.finish(5000);
  EXPECT_EQ(s.checker.violations(), 0u);
}

// Regression for the crash-bench false positive: a grant delivered after
// its requester abandoned the attempt (§6 recovery reissued on a new span)
// is stale-dropped by the site and must not corrupt the holder ledger.
TEST(InvariantChecker, StaleGrantAfterRecoveryIsNotAViolation) {
  Script s;
  const ReqId r1b{30, 1};  // site 1's reissued request
  s.checker.on_span_issue(1, kLock0,span_of(kR1), 0);
  s.checker.on_span_issue(2, kLock0,span_of(kR2), 0);
  // Site 1 recovers before the arbiter's grant (still in flight) arrives.
  s.checker.on_span_issue(1, kLock0,span_of(r1b), 8);
  // Its recovery release reaches arbiter 0, which grants site 2 instead.
  s.checker.observe(s.wire(net::make_release(kR1, ReqId{}), 1, 0, 8), 12);
  // The stale grant for the abandoned attempt lands now: site 1 drops it.
  s.checker.observe(s.wire(net::make_reply(0, kR1), 0, 1, 5), 14);
  // The arbiter's fresh grant to site 2 must read as legal.
  s.checker.observe(s.wire(net::make_reply(0, kR2), 0, 2, 12), 16);
  EXPECT_EQ(s.checker.violations(), 0u)
      << s.checker.reports().front();
}

// -------------------------------------------------- attach order is moot

// Cao–Singhal on a 9-site grid (constant T=1000, closed loop, E=100, 20 CS
// per site, seed 3), run to quiescence under the checker, with a
// SpanRecorder subscribed before or after it.
struct OrderedRun {
  uint64_t checks = 0;
  uint64_t violations = 0;
  size_t span_events = 0;
  uint64_t completed = 0;
};

OrderedRun run_with_recorder(bool recorder_first) {
  constexpr int kN = 9;
  sim::Simulator sim;
  net::Network net(sim, kN, std::make_unique<net::ConstantDelay>(1000), 3);
  const auto quorums = quorum::make_quorum_system("grid", kN);
  std::vector<std::unique_ptr<mutex::MutexSite>> sites;
  std::vector<mutex::MutexSite*> raw;
  for (SiteId i = 0; i < kN; ++i) {
    sites.push_back(
        mutex::make_site(Algo::kCaoSinghal, i, net, quorums.get()));
    net.attach(i, sites.back().get());
    raw.push_back(sites.back().get());
  }
  std::unique_ptr<obs::SpanRecorder> spans;
  auto attach_recorder = [&] {
    spans = std::make_unique<obs::SpanRecorder>(net);
    spans->attach_all(sites);
  };
  if (recorder_first) attach_recorder();
  obs::InvariantChecker checker(net);
  checker.attach_all(sites);
  if (!recorder_first) attach_recorder();

  harness::Workload::Config wc;
  wc.mode = harness::Workload::Config::Mode::kClosed;
  wc.cs_duration = 100;
  wc.max_cs_per_site = 20;
  wc.seed = 3;
  harness::Workload wl(sim, raw, wc, nullptr);
  wl.start();
  sim.run();
  checker.finish(sim.now());
  return {checker.checks(), checker.violations(), spans->events().size(),
          wl.demands_completed()};
}

// Attaching a recorder must not blind the checker, whichever comes first:
// without site edges its CS-exclusion rule and its live-request-gated
// permission rule never fire, so its check count is the tell.
TEST(InvariantChecker, SeesTheSameRunWhateverTheAttachOrder) {
  const OrderedRun before = run_with_recorder(/*recorder_first=*/true);
  const OrderedRun after = run_with_recorder(/*recorder_first=*/false);
  EXPECT_EQ(before.completed, 9u * 20u);
  EXPECT_EQ(before.violations, 0u);
  EXPECT_EQ(before.checks, after.checks);
  EXPECT_EQ(before.violations, after.violations);
  EXPECT_EQ(before.span_events, after.span_events);
  EXPECT_GT(before.span_events, 0u);
}

// ------------------------------------------------------------ model gauges

TEST(Model, Table1FormsForProposedAndBaselines) {
  const obs::ModelPrediction cs = obs::predict(Algo::kCaoSinghal, 25, 9);
  ASSERT_TRUE(cs.has_msgs);
  EXPECT_DOUBLE_EQ(cs.msgs_lo, 3 * 8.0);
  EXPECT_DOUBLE_EQ(cs.msgs_hi, 6 * 8.0);
  ASSERT_TRUE(cs.has_delay);
  EXPECT_DOUBLE_EQ(cs.sync_delay_t, 1.0);

  const obs::ModelPrediction ra = obs::predict(Algo::kRicartAgrawala, 25, 0);
  EXPECT_DOUBLE_EQ(ra.msgs_lo, 2 * 24.0);
  EXPECT_DOUBLE_EQ(ra.sync_delay_t, 1.0);

  EXPECT_FALSE(obs::predict(Algo::kRaymond, 25, 0).has_delay);
}

TEST(Model, MixedDelayAndDivergenceHelpers) {
  EXPECT_DOUBLE_EQ(obs::mixed_sync_delay(3, 1, 1.0), (3 + 2.0) / 4);
  EXPECT_DOUBLE_EQ(obs::mixed_sync_delay(0, 0, 1.5), 1.5);
  EXPECT_NEAR(obs::divergence_point(1.1, 1.0), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(obs::divergence_band(5, 4, 6), 0.0);
  EXPECT_DOUBLE_EQ(obs::divergence_band(8, 4, 6), 2.0 / 6);
}

TEST(Model, RunEmitsDivergenceGaugesWithinTolerance) {
  // Constant delay, saturated: the regime where Table 1 is exact. This is
  // the same gate `dqme_check --preset smoke` applies in CI.
  ExperimentConfig cfg = checked(testing::heavy_cfg(Algo::kCaoSinghal, 25, 3));
  cfg.delay_kind = ExperimentConfig::DelayKind::kConstant;
  const ExperimentResult r = harness::run_experiment(cfg);
  const double* div = r.registry.find_gauge("model_divergence_sync_delay");
  ASSERT_NE(div, nullptr);
  EXPECT_LT(*div, 0.05);
  const double* msgs = r.registry.find_gauge("model_divergence_msgs");
  ASSERT_NE(msgs, nullptr);
  EXPECT_LT(*msgs, 0.05);
}

}  // namespace
}  // namespace dqme
