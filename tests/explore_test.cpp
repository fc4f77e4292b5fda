// Tests for the schedule-space model checker (src/verify + dqme_explore's
// engine): exhaustive coverage of small configs, the sleep-set reduction's
// soundness and effectiveness, seeded-mutation detection with replayable
// counterexamples, crash-point branching, and frontier suspend/resume.
#include <gtest/gtest.h>

#include <sstream>

#include "net/network.h"
#include "obs/event_log.h"
#include "verify/explorer.h"

namespace dqme::verify {
namespace {

WorldConfig small_config(mutex::Algo algo = mutex::Algo::kCaoSinghal) {
  WorldConfig cfg;
  cfg.algo = algo;
  cfg.n = 3;
  cfg.quorum = "grid";
  cfg.cs_per_site = 1;
  return cfg;
}

ExploreResult explore(const WorldConfig& world, uint64_t max_schedules = 0,
                      bool por = true) {
  ExplorerConfig cfg;
  cfg.world = world;
  cfg.max_schedules = max_schedules;
  cfg.por = por;
  return Explorer(cfg).run();
}

TEST(Explorer, CaoSinghalSmallSpaceIsCleanAndComplete) {
  const ExploreResult r = explore(small_config());
  EXPECT_TRUE(r.complete);
  EXPECT_FALSE(r.budget_exhausted);
  EXPECT_TRUE(r.violations.empty());
  // Measured: 2,850 reduced schedules. The floor guards against the space
  // silently collapsing (a broken scheduler hook explores almost nothing).
  EXPECT_GE(r.schedules, 1000u);
  EXPECT_GT(r.sleep_skips, 0u);
}

TEST(Explorer, MaekawaSmallSpaceIsCleanAndComplete) {
  const ExploreResult r = explore(small_config(mutex::Algo::kMaekawa));
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.violations.empty());
  EXPECT_GE(r.schedules, 100u);  // measured: 524
}

TEST(Explorer, SleepSetReductionPrunesAtLeastFiveFold) {
  const ExploreResult reduced = explore(small_config());
  ASSERT_TRUE(reduced.complete);
  // Give the naive DFS five times the reduced schedule count as budget; it
  // must still be unfinished (measured: the naive space is >700x larger).
  const ExploreResult naive =
      explore(small_config(), reduced.schedules * 5, /*por=*/false);
  EXPECT_TRUE(naive.budget_exhausted);
  EXPECT_FALSE(naive.complete);
  EXPECT_TRUE(naive.violations.empty());  // reduction must not *add* bugs
}

TEST(Explorer, DeterministicAcrossRuns) {
  const ExploreResult a = explore(small_config(mutex::Algo::kMaekawa));
  const ExploreResult b = explore(small_config(mutex::Algo::kMaekawa));
  EXPECT_EQ(a.schedules, b.schedules);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.replays, b.replays);
  EXPECT_EQ(a.sleep_skips, b.sleep_skips);
}

// The explorer's demand is lock 0 only, so sizing the lock table larger
// must not change the schedule space: same reduced schedules, same nodes,
// still clean. (Guards the lock-table refactor against perturbing the
// single-lock protocol decisions the model checker certifies.)
TEST(Explorer, MultiLockTableLeavesLock0ScheduleSpaceUnchanged) {
  const ExploreResult base = explore(small_config());
  ASSERT_TRUE(base.complete);
  WorldConfig cfg = small_config();
  cfg.num_locks = 4;
  const ExploreResult multi = explore(cfg);
  EXPECT_TRUE(multi.complete);
  EXPECT_TRUE(multi.violations.empty());
  EXPECT_EQ(multi.schedules, base.schedules);
  EXPECT_EQ(multi.nodes, base.nodes);
  EXPECT_EQ(multi.sleep_skips, base.sleep_skips);
}

TEST(Explorer, CrashBranchingIsCleanAndComplete) {
  WorldConfig cfg = small_config();
  cfg.fault_tolerant = true;
  cfg.crash_sites = {2};
  cfg.max_crashes = 1;
  const ExploreResult r = explore(cfg);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.violations.empty()) << r.violations.front().reports.front();
  // Crash branching multiplies the space (measured: 76,020 vs 2,850).
  EXPECT_GT(r.schedules, explore(small_config()).schedules);
}

// Each seeded mutation breaks a different invariant; the explorer must find
// it, and the minimized counterexample must replay to the same violation
// category from nothing but the schedule file.
struct MutationCase {
  Mutation mutation;
  const char* category;  // first report's prefix up to ':'
};

class MutationTest : public ::testing::TestWithParam<MutationCase> {};

TEST_P(MutationTest, FoundMinimizedAndReplayable) {
  WorldConfig cfg = small_config();
  cfg.mutation = GetParam().mutation;
  ExplorerConfig ec;
  ec.world = cfg;
  ec.max_schedules = 200'000;
  const ExploreResult r = Explorer(ec).run();
  ASSERT_FALSE(r.violations.empty())
      << to_string(GetParam().mutation) << " never detected";
  const Violation& v = r.violations.front();
  ASSERT_FALSE(v.schedule.empty());
  EXPECT_EQ(violation_category(v.reports), GetParam().category);

  // Round-trip through the schedule-file format, then replay cold.
  std::ostringstream file;
  write_schedule(file, cfg, v.schedule, v.reports);
  std::istringstream in(file.str());
  WorldConfig cfg2;
  std::vector<Action> actions;
  std::string error;
  ASSERT_TRUE(read_schedule(in, cfg2, actions, &error)) << error;
  EXPECT_EQ(cfg2.mutation, cfg.mutation);
  ASSERT_EQ(actions.size(), v.schedule.size());
  const auto world = replay_schedule(cfg2, actions);
  ASSERT_GT(world->violations(), 0u);
  EXPECT_EQ(violation_category(world->reports()), GetParam().category);
}

INSTANTIATE_TEST_SUITE_P(
    AllMutations, MutationTest,
    ::testing::Values(MutationCase{Mutation::kDoubleGrant, "permission"},
                      MutationCase{Mutation::kLostTransfer, "conservation"},
                      MutationCase{Mutation::kFifoInversion, "fifo"}),
    [](const ::testing::TestParamInfo<MutationCase>& info) {
      std::string name(to_string(info.param.mutation));
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

// On a crash-free space the source relation coincides with the sleep
// relation (only kCrash's dependencies were refined), so the two modes
// must walk the identical reduced tree.
TEST(Explorer, SourceDporEqualsSleepOnCrashFreeSpace) {
  ExplorerConfig sleep_cfg;
  sleep_cfg.world = small_config();
  sleep_cfg.dpor = Dpor::kSleep;
  const ExploreResult sleep_r = Explorer(sleep_cfg).run();
  ExplorerConfig source_cfg;
  source_cfg.world = small_config();
  source_cfg.dpor = Dpor::kSource;
  const ExploreResult source_r = Explorer(source_cfg).run();
  ASSERT_TRUE(sleep_r.complete);
  ASSERT_TRUE(source_r.complete);
  EXPECT_EQ(source_r.schedules, sleep_r.schedules);
  EXPECT_EQ(source_r.nodes, sleep_r.nodes);
  EXPECT_EQ(source_r.sleep_skips, sleep_r.sleep_skips);
}

// With a crash in the action alphabet, refining crash dependence to the
// victim's locality must prune strictly — the crash point slides across
// unrelated deliveries instead of forking the space at every depth —
// while still covering the reduced space completely and cleanly.
// (Measured: 38,009 vs 76,020 schedules on the N=3 one-crash grid.)
TEST(Explorer, SourceDporStrictlyReducesCrashSpace) {
  WorldConfig world = small_config();
  world.fault_tolerant = true;
  world.crash_sites = {2};
  world.max_crashes = 1;
  ExplorerConfig sleep_cfg;
  sleep_cfg.world = world;
  sleep_cfg.dpor = Dpor::kSleep;
  const ExploreResult sleep_r = Explorer(sleep_cfg).run();
  ExplorerConfig source_cfg;
  source_cfg.world = world;
  source_cfg.dpor = Dpor::kSource;
  const ExploreResult source_r = Explorer(source_cfg).run();
  ASSERT_TRUE(sleep_r.complete);
  ASSERT_TRUE(source_r.complete);
  EXPECT_TRUE(sleep_r.violations.empty());
  EXPECT_TRUE(source_r.violations.empty());
  EXPECT_LT(source_r.schedules, sleep_r.schedules);
  EXPECT_LT(source_r.nodes, sleep_r.nodes);
}

// Naimi–Thiaré-style deadlock seeding: with every inquire dropped, the §4
// deadlock-avoidance handshake never runs and the crossed-grant circular
// wait (each arbiter locked by a different requester, no quorum ever
// completing) becomes reachable. Source-set DPOR must find that request
// ordering within budget, every live site must be reported stalled at
// quiescence, and the counterexample must survive the schedule-file
// round trip (the same artifact dqme_sim --replay-schedule consumes).
TEST(Explorer, DeadlockOrderingFoundUnderSourceDporAndReplays) {
  WorldConfig cfg = small_config();
  cfg.mutation = Mutation::kDeadlockOrdering;
  ExplorerConfig ec;
  ec.world = cfg;
  ec.dpor = Dpor::kSource;
  ec.max_schedules = 200'000;
  const ExploreResult r = Explorer(ec).run();
  ASSERT_FALSE(r.violations.empty()) << "deadlock ordering never found";
  const Violation& v = r.violations.front();
  ASSERT_FALSE(v.schedule.empty());
  int stalled = 0;
  for (const std::string& rep : v.reports)
    if (rep.find("stalled request at quiescence") != std::string::npos)
      ++stalled;
  EXPECT_EQ(stalled, cfg.n) << "not a full circular wait";

  std::ostringstream file;
  write_schedule(file, cfg, v.schedule, v.reports);
  std::istringstream in(file.str());
  WorldConfig cfg2;
  std::vector<Action> actions;
  std::string error;
  ASSERT_TRUE(read_schedule(in, cfg2, actions, &error)) << error;
  EXPECT_EQ(cfg2.mutation, Mutation::kDeadlockOrdering);
  const auto world = replay_schedule(cfg2, actions);
  ASSERT_GT(world->violations(), 0u);
  EXPECT_EQ(violation_category(world->reports()),
            violation_category(v.reports));
}

TEST(Explorer, FrontierResumeCoversTheExactSameSpace) {
  const ExploreResult oneshot = explore(small_config());
  ASSERT_TRUE(oneshot.complete);

  // Run the same exploration in budgeted legs, suspending to a frontier
  // after every 400 schedules and resuming from it in a fresh Explorer.
  ExplorerConfig leg;
  leg.world = small_config();
  leg.max_schedules = 400;
  auto explorer = std::make_unique<Explorer>(leg);
  ExploreResult r = explorer->run();
  int legs = 1;
  while (r.budget_exhausted) {
    ASSERT_LT(legs, 100) << "resume is not making progress";
    std::ostringstream frontier;
    explorer->save_frontier(frontier);
    ExplorerConfig next = leg;
    next.max_schedules = r.schedules + 400;  // per-leg budget is cumulative
    explorer = std::make_unique<Explorer>(next);
    std::istringstream in(frontier.str());
    std::string error;
    ASSERT_TRUE(explorer->load_frontier(in, &error)) << error;
    r = explorer->run();
    ++legs;
  }
  EXPECT_GT(legs, 2);  // the budget actually split the search
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.violations.empty());
  EXPECT_EQ(r.schedules, oneshot.schedules);
  EXPECT_EQ(r.nodes, oneshot.nodes);
  EXPECT_EQ(r.sleep_skips, oneshot.sleep_skips);
}

TEST(Explorer, ReplayToleratesInapplicableActions) {
  // Minimization deletes actions mid-schedule, so replays routinely apply
  // actions whose precondition vanished; they must no-op, not crash.
  std::vector<Action> actions = {
      Action{ActionKind::kExit, 0, kNoSite},       // nobody is in the CS
      Action{ActionKind::kDeliver, 2, 1},          // channel may be empty
      Action{ActionKind::kNotice, 0, 1},           // no such notice pending
      Action{ActionKind::kDeliver, kNoSite, 99},   // out of range
  };
  const auto world = replay_schedule(small_config(), actions);
  EXPECT_EQ(world->violations(), 0u);
}

// Regression for the event-log/payload-pool interaction: a recorded
// Message must not retain its payload handle, because the pool slot is
// recycled the moment the delivery handler returns — and under the
// explorer's out-of-order delivery the recycled slot backs an arbitrary
// later flight, not the "next" one like in clock-driven runs.
struct KvReader final : net::NetSite {
  explicit KvReader(net::Network& net) : net_(net) {}
  void on_message(const net::Message& m, LockId) override {
    if (m.payload != net::kNoPayload) last = net_.read_kv(m);
  }
  net::Network& net_;
  net::KvFields last;
};

// A crash victim outside 0..n-1 used to be filtered out of enabled(),
// silently exploring the crash-free space; schedule and frontier files
// carry crash_sites too, so the World itself rejects it.
TEST(Explorer, OutOfRangeCrashSiteIsRejected) {
  WorldConfig cfg = small_config();
  cfg.fault_tolerant = true;
  cfg.max_crashes = 1;
  for (SiteId victim : {3, 7, -1}) {
    cfg.crash_sites = {victim};
    EXPECT_THROW(World{cfg}, CheckError) << victim;
  }
}

TEST(EventLogControlled, SeversPayloadsAndPoolStaysBounded) {
  sim::Simulator sim;
  net::Network net(sim, 3, std::make_unique<net::ConstantDelay>(1), 1);
  KvReader reader(net);
  for (SiteId i = 0; i < 3; ++i) net.attach(i, &reader);
  obs::EventLog trace(net);
  net.set_controlled(true);

  const auto send_kv = [&](SiteId src, SiteId dst, int64_t value) {
    net::Message m = net::make_request(ReqId{1, src});
    net.attach_kv(m) = net::KvFields{7, value, 1};
    net.send(src, dst, m);
  };
  for (int round = 0; round < 3; ++round) {
    send_kv(0, 1, 10 + round);
    send_kv(2, 1, 20 + round);
    send_kv(1, 0, 30 + round);
    // Deliver in an order no delay model would produce: newest channel
    // first, so pool slots recycle out of send order.
    ASSERT_TRUE(net.deliver_next(1, 0));
    EXPECT_EQ(reader.last.value, 30 + round);
    ASSERT_TRUE(net.deliver_next(2, 1));
    EXPECT_EQ(reader.last.value, 20 + round);
    ASSERT_TRUE(net.deliver_next(0, 1));
    EXPECT_EQ(reader.last.value, 10 + round);
  }
  EXPECT_EQ(net.parked_flights(), 0u);
  EXPECT_EQ(net.stats().in_flight(), 0u);
  // Slots recycle: nine payloads shipped, but never more than three live.
  EXPECT_LE(net.payload_pool_size(), 3u);
  ASSERT_EQ(trace.events().size(), 9u);
  for (const obs::Event& e : trace.events())
    EXPECT_EQ(e.msg.payload, net::kNoPayload);
}

}  // namespace
}  // namespace dqme::verify
