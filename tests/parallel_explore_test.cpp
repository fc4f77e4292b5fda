// Tests for the work-stealing parallel explorer (src/verify/parallel):
// worker-count determinism of the merged counters, byte-identical
// minimized counterexamples, and frontier portability across worker
// counts (v2 multi-task format plus the sequential v1 format).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "verify/explorer.h"
#include "verify/parallel.h"

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

WorldConfig crash_config() {
  WorldConfig cfg = small_config();
  cfg.fault_tolerant = true;
  cfg.crash_sites = {2};
  cfg.max_crashes = 1;
  return cfg;
}

ParallelResult explore_parallel(const WorldConfig& world, int workers,
                                Dpor dpor = Dpor::kSource,
                                uint64_t max_schedules = 0) {
  ParallelConfig cfg;
  cfg.base.world = world;
  cfg.base.dpor = dpor;
  cfg.base.max_schedules = max_schedules;
  cfg.workers = workers;
  return ParallelExplorer(cfg).run();
}

// The structural counters — schedules, nodes, truncated, sleep_skips —
// are sums over a task partition of the DFS tree, so they must not move
// with the worker count. (replays/replay_steps are execution cost and
// legitimately vary with how the tree was cut.)
void expect_same_structure(const ExploreResult& a, const ExploreResult& b) {
  EXPECT_EQ(a.schedules, b.schedules);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.sleep_skips, b.sleep_skips);
}

TEST(ParallelExplorer, MatchesSequentialOnCleanSpace) {
  ExplorerConfig seq_cfg;
  seq_cfg.world = small_config();
  seq_cfg.dpor = Dpor::kSource;
  const ExploreResult seq = Explorer(seq_cfg).run();
  ASSERT_TRUE(seq.complete);

  for (int workers : {1, 4, 8}) {
    const ParallelResult par = explore_parallel(small_config(), workers);
    EXPECT_TRUE(par.merged.complete) << "workers=" << workers;
    EXPECT_TRUE(par.merged.violations.empty());
    expect_same_structure(seq, par.merged);
  }
}

TEST(ParallelExplorer, CountersIdenticalAcrossWorkerCountsWithCrash) {
  const ParallelResult one = explore_parallel(crash_config(), 1);
  ASSERT_TRUE(one.merged.complete);
  ASSERT_TRUE(one.merged.violations.empty());
  for (int workers : {4, 8}) {
    const ParallelResult par = explore_parallel(crash_config(), workers);
    EXPECT_TRUE(par.merged.complete) << "workers=" << workers;
    expect_same_structure(one.merged, par.merged);
  }
  // The crash grid is where work stealing actually engages: the subtree
  // sizes are skewed enough that idle workers must ask for donations.
  const ParallelResult eight = explore_parallel(crash_config(), 8);
  expect_same_structure(one.merged, eight.merged);
}

TEST(ParallelExplorer, MinimizedCounterexampleIdenticalAcrossWorkers) {
  WorldConfig cfg = small_config();
  cfg.mutation = Mutation::kDoubleGrant;

  ExplorerConfig seq_cfg;
  seq_cfg.world = cfg;
  seq_cfg.dpor = Dpor::kSource;
  seq_cfg.max_schedules = 200'000;
  const ExploreResult seq = Explorer(seq_cfg).run();
  ASSERT_FALSE(seq.violations.empty());

  for (int workers : {1, 4, 8}) {
    const ParallelResult par =
        explore_parallel(cfg, workers, Dpor::kSource, 200'000);
    ASSERT_FALSE(par.merged.violations.empty()) << "workers=" << workers;
    const Violation& sv = seq.violations.front();
    const Violation& pv = par.merged.violations.front();
    // Byte-identical: same DFS-first violation, same minimized schedule,
    // same reports — no matter how many threads raced to it.
    EXPECT_EQ(pv.path, sv.path) << "workers=" << workers;
    EXPECT_EQ(encode_actions(pv.schedule), encode_actions(sv.schedule));
    EXPECT_EQ(pv.reports, sv.reports);
  }
}

TEST(ParallelExplorer, ViolationCountersDeterministicAcrossWorkers) {
  WorldConfig cfg = small_config();
  cfg.mutation = Mutation::kLostTransfer;
  const ParallelResult one =
      explore_parallel(cfg, 1, Dpor::kSource, 200'000);
  ASSERT_FALSE(one.merged.violations.empty());
  for (int workers : {4, 8}) {
    const ParallelResult par =
        explore_parallel(cfg, workers, Dpor::kSource, 200'000);
    ASSERT_FALSE(par.merged.violations.empty());
    expect_same_structure(one.merged, par.merged);
    EXPECT_EQ(par.merged.violations.front().path,
              one.merged.violations.front().path);
  }
}

// A frontier saved by an 8-worker run resumes at 1 worker (and the other
// way around), and the two legs cover exactly the full space: cumulative
// schedule/node totals equal the unbudgeted run's — the task partition is
// a node-for-node split of the tree, nothing dropped, nothing double-
// counted.
void roundtrip_frontier(int save_workers, int resume_workers) {
  const ParallelResult full = explore_parallel(crash_config(), 2);
  ASSERT_TRUE(full.merged.complete);

  ParallelConfig budgeted;
  budgeted.base.world = crash_config();
  budgeted.base.dpor = Dpor::kSource;
  budgeted.base.max_schedules = 2'000;
  budgeted.workers = save_workers;
  ParallelExplorer first(budgeted);
  const ParallelResult leg1 = first.run();
  ASSERT_TRUE(leg1.merged.budget_exhausted);
  ASSERT_FALSE(leg1.merged.complete);
  std::ostringstream frontier;
  first.save_frontier(frontier);

  ParallelConfig rest;
  rest.base.world = crash_config();
  rest.base.dpor = Dpor::kSource;
  rest.workers = resume_workers;
  ParallelExplorer second(rest);
  std::istringstream in(frontier.str());
  std::string error;
  ASSERT_TRUE(second.load_frontier(in, &error)) << error;
  const ParallelResult leg2 = second.run();
  EXPECT_TRUE(leg2.merged.complete);
  EXPECT_TRUE(leg2.merged.violations.empty());
  // The v2 header carries the cumulative counters, so the resumed run
  // reports full-space totals.
  EXPECT_EQ(leg2.merged.schedules, full.merged.schedules);
  EXPECT_EQ(leg2.merged.nodes, full.merged.nodes);
  EXPECT_EQ(leg2.merged.sleep_skips, full.merged.sleep_skips);
}

TEST(ParallelExplorer, FrontierSavedAtEightResumesAtOne) {
  roundtrip_frontier(/*save_workers=*/8, /*resume_workers=*/1);
}

TEST(ParallelExplorer, FrontierSavedAtOneResumesAtEight) {
  roundtrip_frontier(/*save_workers=*/1, /*resume_workers=*/8);
}

TEST(ParallelExplorer, SequentialV1FrontierLoadsAndResumes) {
  // A frontier written by the sequential Explorer (v1 single-stack format)
  // must load into the parallel driver — the stack converts to one task
  // per open frame — and finish to the same totals.
  ExplorerConfig seq_cfg;
  seq_cfg.world = crash_config();
  seq_cfg.dpor = Dpor::kSource;
  const ExploreResult full = Explorer(seq_cfg).run();
  ASSERT_TRUE(full.complete);

  ExplorerConfig budgeted = seq_cfg;
  budgeted.max_schedules = 2'000;
  Explorer first(budgeted);
  const ExploreResult leg1 = first.run();
  ASSERT_TRUE(leg1.budget_exhausted);
  std::ostringstream frontier;
  first.save_frontier(frontier);

  ParallelConfig rest;
  rest.base.world = crash_config();
  rest.workers = 4;
  ParallelExplorer second(rest);
  std::istringstream in(frontier.str());
  std::string error;
  ASSERT_TRUE(second.load_frontier(in, &error)) << error;
  // The frontier dictates the DPOR mode it was saved under.
  EXPECT_EQ(second.config().base.dpor, Dpor::kSource);
  const ParallelResult leg2 = second.run();
  EXPECT_TRUE(leg2.merged.complete);
  EXPECT_EQ(leg2.merged.schedules, full.schedules);
  EXPECT_EQ(leg2.merged.nodes, full.nodes);
  EXPECT_EQ(leg2.merged.sleep_skips, full.sleep_skips);
}

TEST(ParallelExplorer, DonationKeepsWorkersBusyOnSkewedTree) {
  // More workers than initial tasks at a tiny split depth: progress beyond
  // the split requires donation (the stolen subtrees are re-seeded), and
  // the totals must still match the sequential run.
  ParallelConfig cfg;
  cfg.base.world = crash_config();
  cfg.base.dpor = Dpor::kSource;
  cfg.workers = 8;
  cfg.split_depth = 1;  // a handful of root tasks for 8 workers
  const ParallelResult par = ParallelExplorer(cfg).run();
  ASSERT_TRUE(par.merged.complete);

  ExplorerConfig seq_cfg;
  seq_cfg.world = crash_config();
  seq_cfg.dpor = Dpor::kSource;
  const ExploreResult seq = Explorer(seq_cfg).run();
  expect_same_structure(seq, par.merged);
  EXPECT_GT(par.tasks_donated, 0u);
}

// Donation at every opportunity, driven on one thread so it is
// deterministic: each seeded Explorer gives its shallowest open frame away
// whenever it can, so nearly every frame ends up split between a donor
// and a donated task. Every violation must still carry the path and
// schedule the sequential DFS reports for it — a donor that mislabels its
// own in-flight child would order the merge wrongly — and the counters
// must sum to the sequential ones.
TEST(ParallelExplorer, EagerDonationKeepsViolationPathsExact) {
  ExplorerConfig base;
  base.world = small_config();
  base.world.mutation = Mutation::kLostTransfer;
  base.dpor = Dpor::kSource;
  base.stop_on_violation = false;
  base.minimize = false;
  const ExploreResult seq = Explorer(base).run();
  ASSERT_TRUE(seq.complete);
  ASSERT_FALSE(seq.violations.empty());

  SharedControl ctl;
  std::vector<Task> queue;
  ExplorerConfig ec = base;
  ec.shared = &ctl;
  ec.spill_sink = [&](Task&& t) {
    queue.push_back(std::move(t));
    ctl.spill_requests.fetch_add(1);  // ask again straight away
  };
  Task root;
  {
    const World initial(base.world);
    initial.enabled(root.frame.actions);
  }
  root.frame.sleep.assign(root.frame.actions.size(), 0);
  root.frame.sealed.assign(root.frame.actions.size(), 0);
  queue.push_back(std::move(root));

  ExploreResult total;
  std::vector<Violation> found;
  uint64_t tasks = 0;
  while (!queue.empty()) {
    Task task = std::move(queue.back());
    queue.pop_back();
    ++tasks;
    ctl.spill_requests.store(1);
    Explorer explorer(ec);
    explorer.seed(std::move(task));
    ExploreResult r = explorer.run();
    merge_counters(total, r);
    for (Violation& v : r.violations) found.push_back(std::move(v));
  }
  EXPECT_GT(tasks, 100u);
  expect_same_structure(seq, total);

  const auto by_path = [](const Violation& a, const Violation& b) {
    return a.path < b.path;
  };
  std::vector<Violation> want = seq.violations;
  std::sort(want.begin(), want.end(), by_path);
  std::sort(found.begin(), found.end(), by_path);
  ASSERT_EQ(found.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(found[i].path, want[i].path) << "violation " << i;
    EXPECT_EQ(encode_actions(found[i].schedule),
              encode_actions(want[i].schedule))
        << "violation " << i;
  }
}

TEST(ParallelExplorer, EightWorkersOutrunOneOnRealCores) {
  // Wall-clock speedup needs actual cores; single-core machines (and
  // oversubscribed CI shards) can't show it, so this gates on hardware.
  // The determinism half of the claim — identical counters regardless of
  // worker count — is asserted unconditionally by the tests above.
  if (std::thread::hardware_concurrency() < 4)
    GTEST_SKIP() << "needs >= 4 hardware threads to measure speedup";

  auto timed = [](int workers) {
    const auto t0 = std::chrono::steady_clock::now();
    const ParallelResult r = explore_parallel(crash_config(), workers);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    EXPECT_TRUE(r.merged.complete);
    return std::pair<ParallelResult, double>{r, ms};
  };
  const auto [one, one_ms] = timed(1);
  const auto [eight, eight_ms] = timed(8);
  expect_same_structure(one.merged, eight.merged);
  // Conservative bar (the CI acceptance target is 3x on the larger N=4
  // space; the N=3 grid is small enough that startup costs bite).
  EXPECT_GT(one_ms / eight_ms, 1.5)
      << "1 worker " << one_ms << " ms vs 8 workers " << eight_ms << " ms";
}

}  // namespace
}  // namespace dqme::verify
