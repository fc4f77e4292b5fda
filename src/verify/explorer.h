// Stateless schedule-space explorer (the model checker's DFS core).
//
// Depth-first search over every (reduced) sequence of Actions a World can
// take from its initial state: which parked flight to deliver next, when a
// site leaves the CS, when each failure notice lands, and — within a
// bounded crash budget — which site to crash at which choice point. Each
// complete schedule ends sealed: the full PR-3 invariant set plus the
// driver-level starvation check run against it.
//
// The search is stateless in the VeriSoft sense: it never matches or
// stores visited states, only paths. What changes on backtrack is how the
// World gets back to the branching node. Every kCheckpointSpacing-th DFS
// level keeps a checkpoint World (World::copy_state_from); backtracking
// restores the deepest checkpointed ancestor and re-applies the at most
// kCheckpointSpacing - 1 actions since. A from-scratch replay of the whole
// prefix — exact, because the simulator is deterministic — happens once
// per run, to reach a seeded task's root or a resumed frontier's stack.
//
// Reduction: per-node source sets maintained with sleep-set bookkeeping
// over the dependence relation selected by ExplorerConfig::dpor
// (schedule.h). A child's sleep set carries every already-explored (or
// sleeping) sibling that is independent of the chosen action, so the
// permutations of pairwise-commuting actions are explored once instead of
// factorially often. Dpor::kSource refines the relation (a crash conflicts
// only with its victim's locality) and adds the sealed-sibling guard: a
// sibling whose application immediately ended the schedule is never put to
// sleep, because the state it reached had no extensions to cover the
// reordered schedules with (the crash enabled-set is gated on liveness of
// the run — docs/VERIFICATION.md states the full argument). `por = false`
// turns reduction off for the naive-DFS comparison.
//
// Violating prefixes stop immediately (every extension violates too), are
// greedily minimized by replay, and come back as replayable schedules.
// Budgets (schedule/node caps) suspend the search with the DFS stack
// serialized — a frontier file — from which a later run resumes exactly.
//
// Parallel use (parallel.h): an Explorer can be seeded with a Task — a
// subtree root described by its action prefix, its DFS index path from the
// true root, and one open Frame — and then explores exactly that subtree.
// SharedControl carries the cross-worker budget/stop/donation channels; a
// running Explorer donates the shallowest open frame of its stack as a new
// Task when a sibling worker asks.
#pragma once

#include <atomic>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "verify/world.h"

namespace dqme::verify {

// One node of the DFS: the enabled set in a fixed deterministic order plus
// the reduction's per-sibling bookkeeping.
struct Frame {
  std::vector<Action> actions;  // enabled set at this node, fixed order
  std::vector<char> sleep;      // sleep-set membership per action
  std::vector<char> sealed;     // explored sibling produced no child node
  size_t next = 0;              // next sibling index to consider
};

// A unit of parallel work: the subtree rooted at the node reached by
// `prefix`, whose siblings-to-explore are `frame`, at DFS position `path`
// (the sibling index chosen at each ancestor, root first). Paths order
// tasks and violations exactly as a single-threaded DFS would encounter
// them: lexicographic comparison of index paths == depth-first preorder.
struct Task {
  std::vector<Action> prefix;
  std::vector<uint32_t> path;
  Frame frame;
};

// Cross-worker state for parallel exploration. All counters are advisory
// (budget enforcement may overshoot by in-flight nodes); determinism of
// the merged structural counters comes from the tree partition, not from
// when workers observe these.
struct SharedControl {
  std::atomic<uint64_t> schedules{0};
  std::atomic<uint64_t> nodes{0};
  std::atomic<bool> stop{false};
  // Idle workers asking for work; a running Explorer that still has an
  // open frame donates it through ExplorerConfig::spill_sink.
  std::atomic<int> spill_requests{0};
  // Bumped whenever the best (lexicographically smallest) violation path
  // improves; workers re-evaluate their abort predicate when it changes.
  std::atomic<uint64_t> abort_epoch{0};
};

struct ExplorerConfig {
  WorldConfig world;
  int max_depth = 0;           // 0 = unbounded (finite anyway: see docs)
  uint64_t max_schedules = 0;  // 0 = unbounded
  uint64_t max_nodes = 0;      // 0 = unbounded
  bool por = true;             // source-set/sleep-set reduction on
  Dpor dpor = Dpor::kSleep;    // which dependence relation drives it
  bool stop_on_violation = true;
  bool minimize = true;        // shrink counterexamples by replay

  // Parallel-driver hooks; all unset for standalone use.
  SharedControl* shared = nullptr;
  // Hand every node at this absolute prefix length to spill_sink as a Task
  // instead of exploring it (the ParallelExplorer split phase). 0 = off.
  size_t spill_depth = 0;
  std::function<void(Task&&)> spill_sink;
  // Re-checked when shared->abort_epoch changes: true = discard this
  // subtree, a violation that precedes it in DFS order was found.
  std::function<bool()> should_abort;
};

struct Violation {
  std::vector<Action> schedule;       // minimal replayable counterexample
  std::vector<std::string> reports;   // what the checker/seal flagged
  std::vector<uint32_t> path;         // DFS index path (see Task::path)
};

// Checkpoint spacing in DFS levels (see the file comment). A restore costs
// one World copy plus up to spacing - 1 re-applied actions; a checkpoint
// costs one World of memory per spaced level per running Explorer, and one
// copy per push at that level. Measured on dqme_bench's explore_n4 (N=4
// grid, 4 workers, 4-vCPU VM) against replaying the whole prefix (17.2k
// schedules/s, 4.86 MB peak RSS): every 8th level 95.7k/s at +4% RSS,
// every 4th 90.9k/s at +10%, every level 74.1k/s at +40%
// (docs/VERIFICATION.md).
inline constexpr size_t kCheckpointSpacing = 8;

struct ExploreResult {
  uint64_t schedules = 0;    // complete (sealed or violating) schedules
  uint64_t truncated = 0;    // paths cut by max_depth, not sealed
  uint64_t nodes = 0;        // actions applied while exploring (not replays)
  uint64_t replays = 0;      // from-scratch world rebuilds
  uint64_t restores = 0;     // backtracks resumed from a checkpoint
  uint64_t replay_steps = 0; // actions re-applied by rebuilds and restores
  uint64_t sleep_skips = 0;  // branches pruned by the reduction
  bool budget_exhausted = false;
  bool complete = false;     // the whole (reduced) space was covered
  bool aborted = false;      // discarded by the parallel abort rule
  std::vector<Violation> violations;
};

// Folds the tree-structural and execution counters of `from` into `into`
// (sums; flags OR where that is the right merge). Violations are not
// merged here — the parallel driver orders those by path itself.
void merge_counters(ExploreResult& into, const ExploreResult& from);

// Replays a schedule on a fresh World: applies every action (inapplicable
// ones no-op), then seals if the run quiesced violation-free. The caller
// inspects violations()/reports() — and, with capture, exports a trace.
std::unique_ptr<World> replay_schedule(const WorldConfig& cfg,
                                       const std::vector<Action>& actions,
                                       bool capture = false);

// Category of a violation = its first report up to the first ':' — stable
// across replays of the same bug, which is what minimization preserves.
std::string violation_category(const std::vector<std::string>& reports);

// Greedy shrink by replay: drop any action whose removal still replays to
// the same violation category. Replay costs are added to `counters`.
void minimize_violation(const WorldConfig& cfg, Violation& v,
                        ExploreResult& counters);

class Explorer {
 public:
  explicit Explorer(ExplorerConfig cfg);

  // Start from a parallel Task instead of the World's initial state. Must
  // be called before run(); the search then covers exactly the subtree the
  // task describes and returns when it is exhausted.
  void seed(Task task);

  // Runs until the space is covered, a violation stops the search, or a
  // budget suspends it. Callable once per Explorer.
  ExploreResult run();

  // Remaining work after a budget/stop suspension, as a partition into
  // tasks: one per open frame of the suspended stack (the leaf continues
  // the in-flight descent; each ancestor keeps its unexplored siblings).
  std::vector<Task> suspended_tasks() const;

  // Serializes the suspended DFS stack (budget_exhausted results only);
  // load restores it — including the WorldConfig — so `run()` continues
  // where the budgeted run stopped. (Single-stack v1 format; the parallel
  // driver's multi-task frontier lives in parallel.h.)
  void save_frontier(std::ostream& os) const;
  bool load_frontier(std::istream& is, std::string* error);

  const ExplorerConfig& config() const { return cfg_; }

 private:
  // Brings world_ to the node the prefix reaches: restores the deepest
  // checkpoint above it, or — before the first one exists — rebuilds.
  void sync_world(ExploreResult& result);
  void rebuild_world(ExploreResult& result);
  // Copies world_ into the checkpoint of spaced stack level `level`.
  void save_checkpoint(size_t level);
  void record_violation(std::vector<Action> schedule,
                        std::vector<std::string> reports,
                        std::vector<uint32_t> path, ExploreResult& result);
  bool over_budget(const ExploreResult& result) const;
  std::vector<uint32_t> current_path() const;
  bool try_donate();

  ExplorerConfig cfg_;
  std::vector<Frame> stack_;
  std::vector<Action> prefix_;
  std::vector<uint32_t> base_path_;  // DFS path of the seeded task root
  size_t seed_depth_ = 0;            // prefix length of the seeded task
  std::unique_ptr<World> world_;
  bool world_matches_ = false;  // world_ state == replay of prefix_
  // checkpoints_[i]: the node at stack level i * kCheckpointSpacing. Every
  // spaced level below the top of the stack holds a current one once
  // world_ exists: a push at a spaced level saves, a rebuild saves them
  // all, and the level-0 frame outlives the search.
  std::vector<std::unique_ptr<World>> checkpoints_;
  ExploreResult carried_;       // counters restored by load_frontier
  uint64_t seen_epoch_ = 0;     // last observed shared->abort_epoch
  bool ran_ = false;
  bool seeded_ = false;
};

}  // namespace dqme::verify
