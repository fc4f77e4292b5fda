// Work-stealing parallel schedule exploration (the driver over explorer.h).
//
// The reduced schedule space is a tree; a Task (explorer.h) names one
// subtree by its action prefix and DFS index path. ParallelExplorer covers
// the tree in three moves:
//
//   1. Split: one sequential Explorer runs with spill_depth set, handing
//      every node at that depth to the task queue instead of exploring it.
//      The split is deterministic and identical for every worker count —
//      that is what makes the merged counters worker-count invariant.
//   2. Workers: N threads drain the queue, each running a private seeded
//      Explorer (its World and checkpoints) per task. An idle worker posts
//      a request on SharedControl::spill_requests; a running Explorer
//      answers by donating the shallowest open frame of its stack as a
//      fresh Task ("work stealing" with donor cooperation — no locked
//      deques, the stacks stay thread-private).
//   3. Merge: tasks partition the tree into disjoint DFS intervals, so the
//      structural counters (schedules, nodes, truncated, sleep_skips) are
//      plain sums, identical no matter how the intervals were assigned or
//      donated. replays/restores/replay_steps are execution cost, not
//      structure — they vary with the partition and are reported but
//      never compared.
//
// Violation determinism under stop_on_violation: every violation carries
// its DFS index path; the merged "first" violation is the lexicographic
// minimum (== what single-threaded DFS would hit first). A task's
// interval starts at its root's first unexplored child (root path plus
// frame.next: a donated task shares its root with the donor's explored
// siblings). A task aborts only when that start already orders after the
// current best — so every interval before the final best is fully
// explored, which is exactly why the minimum is stable. Merged counters
// include the split phase, every task starting at-or-before the best
// violation (the violating task contributes its stopped-short partial),
// and nothing after it.
// Minimization runs once, on the chosen violation, after the merge.
//
// Budgets suspend the whole fleet: the first Explorer over budget sets
// SharedControl::stop, everyone parks at the next loop top, and the
// remaining work — queued tasks plus each suspended stack re-packaged by
// Explorer::suspended_tasks() — serializes as a multi-task frontier file
// (format v2). A v2 frontier saved at one worker count resumes at any
// other; v1 single-stack files load too (they convert to tasks).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "verify/explorer.h"

namespace dqme::verify {

struct ParallelConfig {
  // Budgets, DPOR mode, world, stop/minimize policy. The parallel-driver
  // hooks (shared, spill_*, should_abort) are owned by the driver and
  // overwritten per task.
  ExplorerConfig base;
  int workers = 1;
  // Absolute prefix depth of the split phase: every node the split
  // Explorer reaches at this depth becomes an initial Task. Must not
  // depend on `workers` (counter determinism). 0 picks the default.
  size_t split_depth = 0;
};

constexpr size_t kDefaultSplitDepth = 2;

struct ParallelResult {
  ExploreResult merged;
  uint64_t tasks_run = 0;      // initial split tasks + donated tasks
  uint64_t tasks_donated = 0;  // of which arrived by work stealing
  uint64_t tasks_discarded = 0;  // ordered after the best violation
};

class ParallelExplorer {
 public:
  explicit ParallelExplorer(ParallelConfig cfg);

  // Covers the space (or resumes a loaded frontier). Single-shot.
  ParallelResult run();

  // Multi-task frontier (v2). save is only meaningful after a run that
  // ended budget_exhausted; load must precede run() and also accepts the
  // sequential explorer's v1 single-stack format.
  void save_frontier(std::ostream& os) const;
  bool load_frontier(std::istream& is, std::string* error);

  const ParallelConfig& config() const { return cfg_; }

 private:
  ParallelConfig cfg_;
  ExploreResult carried_;       // counters restored by load_frontier
  std::vector<Task> pending_;   // loaded frontier tasks (skip the split)
  std::vector<Task> leftover_;  // unexplored tasks after a suspension
  bool loaded_ = false;
  bool ran_ = false;
};

}  // namespace dqme::verify
