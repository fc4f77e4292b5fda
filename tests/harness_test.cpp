// Unit tests for the measurement layer itself: Metrics arithmetic, the
// workload drivers' accounting, and the table printer.
#include <gtest/gtest.h>

#include <sstream>

#include "net/network.h"
#include "harness/experiment.h"
#include "harness/metrics.h"
#include "harness/sweep.h"
#include "quorum/factory.h"
#include "harness/table.h"

namespace dqme::harness {
namespace {

struct NullSite final : public net::NetSite {
  void on_message(const net::Message&, LockId) override {}
};

struct MetricsRig {
  MetricsRig()
      : net(sim, 2, std::make_unique<net::ConstantDelay>(10), 1),
        metrics(net) {
    net.attach(0, &sink);
    net.attach(1, &sink);
  }
  sim::Simulator sim;
  net::Network net;
  NullSite sink;
  Metrics metrics;
};

TEST(Metrics, CountsCompletionsAndWaitingTimes) {
  MetricsRig rig;
  rig.metrics.reset(0);
  // Site 0: demanded 0, requested 10, entered 100, exited 150.
  rig.metrics.on_enter(0, kLock0,100, 0, 10);
  rig.metrics.on_exit(0, kLock0,150);
  // Site 1: demanded 50, requested 50, entered 200, exited 230.
  rig.metrics.on_enter(1, kLock0,200, 50, 50);
  rig.metrics.on_exit(1, kLock0,230);
  Summary s = rig.metrics.summarize(1000);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.violations, 0u);
  EXPECT_DOUBLE_EQ(s.waiting_mean, (90 + 150) / 2.0);
  EXPECT_DOUBLE_EQ(s.waiting_max, 150.0);
  EXPECT_DOUBLE_EQ(s.queueing_mean, (100 + 150) / 2.0);
  EXPECT_DOUBLE_EQ(s.response_mean, (150 + 180) / 2.0);
  EXPECT_DOUBLE_EQ(s.throughput, 2.0 / 1000.0);
}

TEST(Metrics, SynchronizationGapMeasuredBetweenConsecutiveCs) {
  MetricsRig rig;
  rig.metrics.reset(0);
  rig.metrics.on_enter(0, kLock0,100, 0, 0);
  rig.metrics.on_exit(0, kLock0,150);
  rig.metrics.on_enter(1, kLock0,180, 120, 120);  // requested < previous exit
  rig.metrics.on_exit(1, kLock0,200);
  rig.metrics.on_enter(0, kLock0,500, 400, 400);  // requested after exit: idle gap
  rig.metrics.on_exit(0, kLock0,510);
  Summary s = rig.metrics.summarize(1000);
  EXPECT_DOUBLE_EQ(s.sync_delay_mean, (30 + 300) / 2.0);
  EXPECT_EQ(s.contended_gaps, 1u);
  EXPECT_DOUBLE_EQ(s.sync_delay_contended, 30.0);
}

TEST(Metrics, OverlappingCsCountsViolations) {
  MetricsRig rig;
  rig.metrics.reset(0);
  rig.metrics.on_enter(0, kLock0,100, 0, 0);
  rig.metrics.on_enter(1, kLock0,110, 0, 0);  // overlap!
  Summary s = rig.metrics.summarize(200);
  EXPECT_EQ(s.violations, 1u);
  EXPECT_EQ(rig.metrics.currently_inside(), 2);
}

TEST(Metrics, DifferentLocksMayOverlapWithoutViolation) {
  MetricsRig rig;
  Metrics m(rig.net, /*num_locks=*/3);
  m.reset(0);
  // Three sites inside three different locks at once: legal.
  m.on_enter(0, LockId{0}, 100, 0, 0);
  m.on_enter(1, LockId{1}, 110, 0, 0);
  m.on_enter(0, LockId{2}, 115, 0, 0);
  EXPECT_EQ(m.currently_inside(), 3);
  m.on_exit(0, LockId{0}, 150);
  m.on_exit(1, LockId{1}, 160);
  m.on_exit(0, LockId{2}, 170);
  // ...but a second entrant into an occupied lock is still flagged.
  m.on_enter(0, LockId{1}, 200, 0, 0);
  m.on_enter(1, LockId{1}, 210, 0, 0);
  Summary s = m.summarize(300);
  EXPECT_EQ(s.violations, 1u);
  EXPECT_EQ(s.completed, 3u);
}

TEST(Metrics, SynchronizationGapsAreMeasuredWithinOneLock) {
  MetricsRig rig;
  Metrics m(rig.net, /*num_locks=*/2);
  m.reset(0);
  m.on_enter(0, LockId{0}, 100, 0, 0);
  m.on_exit(0, LockId{0}, 150);
  // Lock 1's first entry must not pair with lock 0's exit...
  m.on_enter(1, LockId{1}, 180, 120, 120);
  m.on_exit(1, LockId{1}, 200);
  // ...while lock 0's next contended entry pairs with its own exit.
  m.on_enter(1, LockId{0}, 250, 140, 140);
  m.on_exit(1, LockId{0}, 260);
  Summary s = m.summarize(1000);
  EXPECT_EQ(s.contended_gaps, 1u);
  EXPECT_DOUBLE_EQ(s.sync_delay_contended, 100.0);  // 250 - 150
}

TEST(Metrics, ViolationsSurviveWindowReset) {
  MetricsRig rig;
  rig.metrics.on_enter(0, kLock0,10, 0, 0);
  rig.metrics.on_enter(1, kLock0,20, 0, 0);
  rig.metrics.reset(100);
  EXPECT_EQ(rig.metrics.summarize(200).violations, 1u);
}

TEST(Metrics, WarmupEntriesAreExcludedFromWindow) {
  MetricsRig rig;
  rig.metrics.on_enter(0, kLock0,50, 0, 0);  // before reset
  rig.metrics.reset(100);
  rig.metrics.on_exit(0, kLock0,150);  // exits inside window but entered before
  Summary s = rig.metrics.summarize(200);
  EXPECT_EQ(s.completed, 0u);
}

TEST(Metrics, CrashDiscardsOpenInterval) {
  MetricsRig rig;
  rig.metrics.reset(0);
  rig.metrics.on_enter(0, kLock0,100, 0, 0);
  rig.metrics.on_crash(0);
  // Next entry is not a violation and no gap is measured off the crash.
  rig.metrics.on_enter(1, kLock0,200, 0, 0);
  rig.metrics.on_exit(1, kLock0,210);
  Summary s = rig.metrics.summarize(300);
  EXPECT_EQ(s.violations, 0u);
  EXPECT_EQ(s.completed, 1u);
}

TEST(Metrics, ExitWithoutEnterIsAnError) {
  MetricsRig rig;
  EXPECT_THROW(rig.metrics.on_exit(0, kLock0,10), CheckError);
}

TEST(Metrics, PerTypeMessageAveragesComeFromWindowDeltas) {
  MetricsRig rig;
  rig.net.send(0, 1, net::make_request(ReqId{1, 0}));
  rig.sim.run();
  rig.metrics.reset(rig.sim.now());  // pre-window traffic excluded
  rig.net.send(0, 1, net::make_request(ReqId{2, 0}));
  rig.net.send(1, 0, net::make_reply(1, ReqId{2, 0}));
  rig.sim.run();
  rig.metrics.on_enter(0, kLock0,rig.sim.now(), 0, 0);
  rig.metrics.on_exit(0, kLock0,rig.sim.now());
  Summary s = rig.metrics.summarize(rig.sim.now());
  EXPECT_DOUBLE_EQ(s.wire_msgs_per_cs, 2.0);
  EXPECT_DOUBLE_EQ(
      s.per_type_per_cs[static_cast<size_t>(net::MsgType::kRequest)], 1.0);
  EXPECT_DOUBLE_EQ(
      s.per_type_per_cs[static_cast<size_t>(net::MsgType::kReply)], 1.0);
}

// ----------------------------------------------------------------- table

TEST(Table, RendersAlignedColumns) {
  Table t({"algo", "delay"});
  t.add_row({"maekawa", "2T"});
  t.add_row({"proposed", "T"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| algo     | delay |"), std::string::npos);
  EXPECT_NE(out.find("| proposed | T     |"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 6);
}

TEST(Table, RejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::integer(42), "42");
}

// -------------------------------------------------------------- workload

TEST(Workload, ClosedLoopHonoursMaxCsPerSite) {
  sim::Simulator sim;
  net::Network net(sim, 4, std::make_unique<net::ConstantDelay>(100), 2);
  auto qs = quorum::make_quorum_system("grid", 4);
  std::vector<std::unique_ptr<mutex::MutexSite>> sites;
  std::vector<mutex::MutexSite*> raw;
  for (SiteId i = 0; i < 4; ++i) {
    sites.push_back(mutex::make_site(mutex::Algo::kCaoSinghal, i, net,
                                     qs.get()));
    net.attach(i, sites.back().get());
    raw.push_back(sites.back().get());
  }
  Workload::Config wc;
  wc.mode = Workload::Config::Mode::kClosed;
  wc.cs_duration = 10;
  wc.max_cs_per_site = 3;
  Metrics metrics(net);
  Workload wl(sim, raw, wc, &metrics);
  wl.start();
  sim.run();
  EXPECT_EQ(wl.demands_completed(), 12u);
  EXPECT_EQ(wl.demands_outstanding(), 0u);
}

TEST(Workload, OpenLoopArrivalRateIsRespected) {
  sim::Simulator sim;
  net::Network net(sim, 2, std::make_unique<net::ConstantDelay>(10), 2);
  auto qs = quorum::make_quorum_system("grid", 2);
  std::vector<std::unique_ptr<mutex::MutexSite>> sites;
  std::vector<mutex::MutexSite*> raw;
  for (SiteId i = 0; i < 2; ++i) {
    sites.push_back(mutex::make_site(mutex::Algo::kCaoSinghal, i, net,
                                     qs.get()));
    net.attach(i, sites.back().get());
    raw.push_back(sites.back().get());
  }
  Workload::Config wc;
  wc.mode = Workload::Config::Mode::kOpen;
  wc.arrival_rate = 1.0 / 1000.0;  // mean inter-arrival 1000 ticks/site
  wc.cs_duration = 5;
  Metrics metrics(net);
  Workload wl2(sim, raw, wc, &metrics);
  wl2.start();
  sim.run_until(1'000'000);
  // ~2000 expected demands (2 sites x 1000); allow generous slack.
  EXPECT_GT(wl2.demands_issued(), 1600u);
  EXPECT_LT(wl2.demands_issued(), 2400u);
  wl2.drain();
  sim.run();
  EXPECT_EQ(wl2.demands_outstanding(), 0u);
}

// ------------------------------------------------------------ experiment

TEST(Experiment, ReportsQuorumSizeAndCleanDrain) {
  ExperimentConfig cfg;
  cfg.algo = mutex::Algo::kCaoSinghal;
  cfg.n = 9;
  cfg.warmup = 50'000;
  cfg.measure = 200'000;
  ExperimentResult r = run_experiment(cfg);
  EXPECT_DOUBLE_EQ(r.mean_quorum_size, 5.0);
  EXPECT_TRUE(r.drained_clean);
  EXPECT_EQ(r.demands_issued, r.demands_completed);
}

TEST(Experiment, NonQuorumAlgosReportK1) {
  ExperimentConfig cfg;
  cfg.algo = mutex::Algo::kLamport;
  cfg.n = 4;
  cfg.warmup = 50'000;
  cfg.measure = 100'000;
  ExperimentResult r = run_experiment(cfg);
  EXPECT_DOUBLE_EQ(r.mean_quorum_size, 1.0);
}

TEST(Metrics, JainFairnessIndex) {
  MetricsRig rig;  // 2 sites
  rig.metrics.reset(0);
  // Perfectly even: 2 completions each.
  for (int k = 0; k < 4; ++k) {
    const SiteId who = static_cast<SiteId>(k % 2);  // 0,1,0,1
    const Time t = 10 + 20 * k;
    rig.metrics.on_enter(who, kLock0, t, 0, 0);
    rig.metrics.on_exit(who, kLock0, t + 5);
  }
  EXPECT_DOUBLE_EQ(rig.metrics.summarize(100).fairness_jain, 1.0);
  // Completely one-sided.
  rig.metrics.reset(100);
  rig.metrics.on_enter(0, kLock0,110, 100, 100);
  rig.metrics.on_exit(0, kLock0,120);
  EXPECT_DOUBLE_EQ(rig.metrics.summarize(200).fairness_jain, 0.5);
}

TEST(Workload, SiteWeightsShapeDemand) {
  sim::Simulator sim;
  net::Network net(sim, 4, std::make_unique<net::ConstantDelay>(50), 2);
  auto qs = quorum::make_quorum_system("grid", 4);
  std::vector<std::unique_ptr<mutex::MutexSite>> sites;
  std::vector<mutex::MutexSite*> raw;
  for (SiteId i = 0; i < 4; ++i) {
    sites.push_back(mutex::make_site(mutex::Algo::kCaoSinghal, i, net,
                                     qs.get()));
    net.attach(i, sites.back().get());
    raw.push_back(sites.back().get());
  }
  Workload::Config wc;
  wc.mode = Workload::Config::Mode::kOpen;
  wc.arrival_rate = 1.0 / 5000.0;
  wc.site_weights = {4.0, 1.0, 1.0, 0.0};
  wc.cs_duration = 10;
  Metrics metrics(net);
  Workload wl(sim, raw, wc, &metrics);
  wl.start();
  sim.run_until(3'000'000);
  wl.drain();
  sim.run();
  // Site 3 never demands; site 0 completes ~4x what 1 and 2 do.
  EXPECT_EQ(wl.demands_outstanding(), 0u);
  EXPECT_EQ(sites[3]->cs_entries(), 0u);
  EXPECT_GT(sites[0]->cs_entries(), 2 * sites[1]->cs_entries());
  EXPECT_GT(sites[1]->cs_entries(), 0u);
}

TEST(Metrics, WaitingPercentiles) {
  MetricsRig rig;
  rig.metrics.reset(0);
  // 100 completions with waits 1..100 (alternating sites).
  Time now = 0;
  for (int w = 1; w <= 100; ++w) {
    now += 1000;
    rig.metrics.on_enter(static_cast<SiteId>(w % 2), kLock0, now, now - w,
                         now - w);
    rig.metrics.on_exit(static_cast<SiteId>(w % 2), kLock0, now + 1);
  }
  Summary s = rig.metrics.summarize(now + 10);
  EXPECT_NEAR(s.waiting_p50, 50.0, 1.5);
  EXPECT_NEAR(s.waiting_p95, 95.0, 1.5);
  EXPECT_NEAR(s.waiting_p99, 99.0, 1.5);
  EXPECT_DOUBLE_EQ(s.waiting_max, 100.0);
}

TEST(Experiment, ClusteredDelayEndToEnd) {
  ExperimentConfig cfg;
  cfg.algo = mutex::Algo::kCaoSinghal;
  cfg.n = 16;
  cfg.delay_kind = ExperimentConfig::DelayKind::kClustered;
  cfg.clusters = 4;
  cfg.warmup = 100'000;
  cfg.measure = 500'000;
  ExperimentResult r = run_experiment(cfg);
  EXPECT_EQ(r.summary.violations, 0u);
  EXPECT_TRUE(r.drained_clean);
  EXPECT_GT(r.summary.completed, 0u);
}

TEST(Experiment, ReplicateAggregatesAcrossSeeds) {
  ExperimentConfig cfg;
  cfg.algo = mutex::Algo::kCaoSinghal;
  cfg.n = 9;
  cfg.delay_kind = ExperimentConfig::DelayKind::kUniform;
  cfg.warmup = 50'000;
  cfg.measure = 200'000;
  const Replicated rep =
      aggregate(replicate(cfg, 4), [](const ExperimentResult& r) {
        return static_cast<double>(r.summary.completed);
      });
  EXPECT_GT(rep.mean, 0.0);
  EXPECT_GE(rep.sd, 0.0);     // jittered runs differ...
  EXPECT_LT(rep.sd, rep.mean);  // ...but not wildly
}

}  // namespace
}  // namespace dqme::harness
