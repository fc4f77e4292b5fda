// Unit tests for the measurement layer itself: Metrics arithmetic, the
// workload drivers' accounting, and the table printer.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/failure_detector.h"
#include "harness/deployment.h"
#include "harness/experiment.h"
#include "net/network.h"
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

// -------------------------------------------------------------- backlog

TEST(Backlog, FifoAcrossPartialDrainsAndWrapAround) {
  Backlog b;
  EXPECT_EQ(b.capacity(), 0u);  // no heap block until the first push
  Rng rng(5);
  Time next_in = 0;
  Time next_out = 0;
  size_t peak = 0;
  for (int round = 0; round < 2000; ++round) {
    for (int64_t k = rng.uniform_int(0, 4); k > 0; --k) b.push(next_in++);
    peak = std::max(peak, b.size());
    for (int64_t k = rng.uniform_int(0, 4); k > 0 && !b.empty(); --k)
      ASSERT_EQ(b.pop(), next_out++);
    ASSERT_EQ(b.size(), static_cast<size_t>(next_in - next_out));
  }
  EXPECT_LE(b.capacity(), 2 * peak);
  // clear() reports exactly the not-yet-issued remainder and keeps the
  // capacity for the next burst.
  const size_t cap = b.capacity();
  const size_t left = b.size();
  EXPECT_EQ(b.clear(), left);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.capacity(), cap);
  b.push(42);
  EXPECT_EQ(b.pop(), 42);
  EXPECT_EQ(b.capacity(), cap);
}

TEST(Backlog, NeverEmptyingQueueReusesConsumedSlots) {
  // An overloaded open loop: the queue oscillates between 100 and 200
  // entries for 100k pushes and never drains.
  Backlog b;
  Time next_out = 0;
  Time t = 0;
  for (; t < 200; ++t) b.push(t);
  while (t < 100'000) {
    while (b.size() > 100) ASSERT_EQ(b.pop(), next_out++);
    while (b.size() < 200) b.push(t++);
  }
  EXPECT_LE(b.capacity(), 2u * 200);
}

// Site 0 alone demands lock 0 of a 4-site Cao-Singhal grid (K = 3, T =
// 10, E = 100: one CS takes ~120 ticks), as an open loop at `rate`.
struct OpenRig {
  explicit OpenRig(double rate, bool fault_tolerant = false)
      : net(sim, 4, std::make_unique<net::ConstantDelay>(10), 2),
        dep(mutex::Algo::kCaoSinghal, 4, "grid", options(fault_tolerant),
            net),
        metrics(net),
        wl(sim, dep.sites(), config(rate), &metrics),
        detector(net, 20, 0, 3) {
    for (SiteId id = 0; id < 4; ++id) detector.attach(id, &dep.site(id));
  }
  static mutex::AlgoOptions options(bool fault_tolerant) {
    mutex::AlgoOptions o;
    o.fault_tolerant = fault_tolerant;
    return o;
  }
  static Workload::Config config(double rate) {
    Workload::Config c;
    c.mode = Workload::Config::Mode::kOpen;
    c.arrival_rate = rate;
    c.site_weights = {1, 0, 0, 0};
    c.cs_duration = 100;
    return c;
  }
  const Backlog& backlog() const { return wl.backlog(0, kLock0); }
  // Steps until `pred` holds, tracking the deepest backlog seen.
  template <class Pred>
  void step_until(Pred pred) {
    while (!pred()) {
      ASSERT_TRUE(sim.step());
      peak = std::max(peak, backlog().size());
    }
  }
  void expect_exact_accounting() const {
    EXPECT_EQ(wl.demands_issued(),
              wl.demands_completed() + wl.demands_aborted());
    EXPECT_EQ(wl.demands_outstanding(), 0u);
    EXPECT_TRUE(backlog().empty());
  }

  sim::Simulator sim;
  net::Network net;
  Deployment dep;
  Metrics metrics;
  Workload wl;
  core::FailureDetector detector;
  size_t peak = 0;
};

TEST(Workload, OpenLoopBacklogIssuesInArrivalOrder) {
  OpenRig rig(1.0 / 130);  // ~90% utilised: the queue fills and drains
  rig.wl.start();
  // Each window holds exactly one completed CS, so its mean response time
  // (exit - arrival) recovers that demand's arrival time.
  rig.metrics.reset(0);
  std::vector<Time> arrivals;
  while (arrivals.size() < 2000) {
    const uint64_t done = rig.wl.demands_completed();
    rig.step_until([&] { return rig.wl.demands_completed() > done; });
    const Summary s = rig.metrics.summarize(rig.sim.now());
    ASSERT_EQ(s.completed, 1u);
    arrivals.push_back(rig.sim.now() - static_cast<Time>(s.response_mean));
    rig.metrics.reset(rig.sim.now());
  }
  EXPECT_GE(rig.peak, 4u);  // deep enough that any other order would show
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
  rig.wl.drain();
  rig.sim.run();
  rig.expect_exact_accounting();
}

TEST(Workload, SustainedBacklogKeepsSlotCapacityBounded) {
  OpenRig rig(1.0 / 115);  // arrivals outpace service: never drains
  rig.wl.start();
  rig.step_until([&] { return rig.wl.demands_completed() >= 5000; });
  EXPECT_GT(rig.backlog().size(), 0u);
  // Consumed slots are reused: capacity tracks the peak live backlog, not
  // the thousands of demands that went through the slot.
  EXPECT_LE(rig.backlog().capacity(), 2 * rig.peak);
  EXPECT_LT(4 * rig.backlog().capacity(), rig.wl.demands_issued());
  rig.wl.drain();
  rig.sim.run();
  rig.expect_exact_accounting();
}

TEST(Workload, HaltSiteMidBacklogWritesOffTheRemainder) {
  OpenRig rig(1.0 / 100);
  rig.wl.start();
  rig.step_until([&] { return rig.backlog().size() >= 5; });
  const size_t queued = rig.backlog().size();
  const uint64_t aborted = rig.wl.demands_aborted();
  rig.wl.halt_site(0);
  // The open demand and every demand queued behind it.
  EXPECT_EQ(rig.wl.demands_aborted(), aborted + 1 + queued);
  rig.wl.drain();
  rig.sim.run();
  rig.expect_exact_accounting();
}

// §6: sites 1 and 2 crash, leaving no fully live row of the 2x2 grid, so
// site 0 cannot form a quorum and aborts with a backlog queued.
TEST(Workload, StallAbortWritesOffTheBacklog) {
  OpenRig rig(1.0 / 100, /*fault_tolerant=*/true);
  rig.wl.start();
  rig.step_until([&] { return rig.backlog().size() >= 5; });
  const size_t queued = rig.backlog().size();
  for (SiteId victim : {1, 2}) {
    rig.wl.halt_site(victim);
    rig.detector.crash(victim);
  }
  rig.sim.run();
  const auto& site0 = static_cast<const core::CaoSinghalSite&>(rig.dep.site(0));
  EXPECT_TRUE(site0.stalled());
  EXPECT_GE(rig.wl.demands_aborted(), 1 + queued);
  rig.expect_exact_accounting();
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

TEST(Deployment, BuildsAttachesAndDerivesCheckerOptions) {
  sim::Simulator sim;
  net::Network net(sim, 9, std::make_unique<net::ConstantDelay>(10), 1);
  const Deployment quorum(mutex::Algo::kMaekawa, 9, "grid", {}, net);
  ASSERT_EQ(quorum.sites().size(), 9u);
  ASSERT_NE(quorum.quorums(), nullptr);
  EXPECT_EQ(quorum.quorums()->mean_quorum_size(), 5);
  EXPECT_TRUE(quorum.invariant_options(123).quorum_arbitration);
  EXPECT_EQ(quorum.invariant_options(123).liveness_bound, 123);
  for (SiteId i = 0; i < 9; ++i) EXPECT_EQ(quorum.site(i).id(), i);

  // A second deployment re-attaches every site: attach overwrites.
  const Deployment plain(mutex::Algo::kLamport, 9, "grid", {}, net);
  EXPECT_EQ(plain.quorums(), nullptr);
  EXPECT_FALSE(plain.invariant_options(0).quorum_arbitration);
  plain.site(3).request_cs(kLock0);
  sim.run();
  EXPECT_EQ(plain.totals().cs_entries, 1u);
  EXPECT_EQ(quorum.totals().cs_entries, 0u);
}

TEST(Deployment, RunExperimentReportsCaoSinghalTotals) {
  ExperimentConfig cfg;
  cfg.n = 9;
  cfg.warmup = 10'000;
  cfg.measure = 100'000;
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_GT(r.protocol_stats.replies_forwarded, 0u);
  EXPECT_GT(r.case_stats.grant_free, 0u);
}

}  // namespace
}  // namespace dqme::harness
