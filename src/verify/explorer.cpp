#include "verify/explorer.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/check.h"

namespace dqme::verify {

std::unique_ptr<World> replay_schedule(const WorldConfig& cfg,
                                       const std::vector<Action>& actions,
                                       bool capture) {
  auto world = std::make_unique<World>(cfg, capture);
  for (const Action& a : actions) {
    if (world->violations() > 0) break;  // the explorer stopped here too
    world->apply(a);
  }
  if (world->violations() == 0 && world->quiescent()) world->seal();
  return world;
}

std::string violation_category(const std::vector<std::string>& reports) {
  if (reports.empty()) return {};
  const std::string& first = reports.front();
  return first.substr(0, first.find(':'));
}

void minimize_violation(const WorldConfig& cfg, Violation& v,
                        ExploreResult& counters) {
  // Greedy shrink: drop any action whose removal still replays to the
  // same violation category. Inapplicable leftovers no-op on replay, so
  // every intermediate candidate stays well-defined.
  const std::string category = violation_category(v.reports);
  size_t i = 0;
  while (i < v.schedule.size()) {
    std::vector<Action> candidate = v.schedule;
    candidate.erase(candidate.begin() + static_cast<ptrdiff_t>(i));
    auto world = replay_schedule(cfg, candidate);
    ++counters.replays;
    counters.replay_steps += candidate.size();
    if (world->violations() > 0 &&
        violation_category(world->reports()) == category) {
      v.schedule = std::move(candidate);
      v.reports = world->reports();
    } else {
      ++i;
    }
  }
}

void merge_counters(ExploreResult& into, const ExploreResult& from) {
  into.schedules += from.schedules;
  into.truncated += from.truncated;
  into.nodes += from.nodes;
  into.replays += from.replays;
  into.restores += from.restores;
  into.replay_steps += from.replay_steps;
  into.sleep_skips += from.sleep_skips;
  into.budget_exhausted = into.budget_exhausted || from.budget_exhausted;
}

Explorer::Explorer(ExplorerConfig cfg) : cfg_(std::move(cfg)) {}

void Explorer::seed(Task task) {
  DQME_CHECK_MSG(!ran_ && stack_.empty(), "seed() on a used Explorer");
  prefix_ = std::move(task.prefix);
  base_path_ = std::move(task.path);
  seed_depth_ = prefix_.size();
  stack_.push_back(std::move(task.frame));
  if (stack_.back().sealed.size() != stack_.back().actions.size())
    stack_.back().sealed.assign(stack_.back().actions.size(), 0);
  seeded_ = true;
}

void Explorer::sync_world(ExploreResult& result) {
  if (world_ == nullptr) {
    rebuild_world(result);
  } else {
    const size_t base = (prefix_.size() - seed_depth_) /
                        kCheckpointSpacing * kCheckpointSpacing;
    world_->copy_state_from(*checkpoints_[base / kCheckpointSpacing]);
    for (size_t d = seed_depth_ + base; d < prefix_.size(); ++d)
      world_->apply(prefix_[d]);
    ++result.restores;
    result.replay_steps += prefix_.size() - seed_depth_ - base;
  }
  world_matches_ = true;
}

void Explorer::rebuild_world(ExploreResult& result) {
  world_ = std::make_unique<World>(cfg_.world);
  for (size_t d = 0; d < seed_depth_; ++d) world_->apply(prefix_[d]);
  for (size_t level = 0;; ++level) {  // checkpoint the levels on the way
    if (level % kCheckpointSpacing == 0) save_checkpoint(level);
    if (seed_depth_ + level == prefix_.size()) break;
    world_->apply(prefix_[seed_depth_ + level]);
  }
  ++result.replays;
  result.replay_steps += prefix_.size();
}

void Explorer::save_checkpoint(size_t level) {
  const size_t i = level / kCheckpointSpacing;
  if (checkpoints_.size() <= i) checkpoints_.resize(i + 1);
  if (checkpoints_[i] == nullptr)
    checkpoints_[i] = std::make_unique<World>(cfg_.world);
  checkpoints_[i]->copy_state_from(*world_);
}

bool Explorer::over_budget(const ExploreResult& result) const {
  // Under a SharedControl the budgets are global across all workers.
  const uint64_t schedules =
      cfg_.shared ? cfg_.shared->schedules.load(std::memory_order_relaxed)
                  : result.schedules;
  const uint64_t nodes =
      cfg_.shared ? cfg_.shared->nodes.load(std::memory_order_relaxed)
                  : result.nodes;
  if (cfg_.max_schedules > 0 && schedules >= cfg_.max_schedules) return true;
  return cfg_.max_nodes > 0 && nodes >= cfg_.max_nodes;
}

std::vector<uint32_t> Explorer::current_path() const {
  std::vector<uint32_t> path = base_path_;
  path.reserve(base_path_.size() + stack_.size());
  for (const Frame& f : stack_) {
    DQME_CHECK(f.next > 0);
    path.push_back(static_cast<uint32_t>(f.next - 1));
  }
  return path;
}

bool Explorer::try_donate() {
  // Claim one pending request before scanning, so concurrent donors do not
  // flood the queue for a single idle worker.
  if (cfg_.shared->spill_requests.fetch_sub(1, std::memory_order_acq_rel) <=
      0) {
    cfg_.shared->spill_requests.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Donate the shallowest open ancestor frame: the biggest subtrees sit at
  // the top of the stack, and the leaf is the donor's own in-flight work.
  for (size_t f = 0; f + 1 < stack_.size(); ++f) {
    Frame& frame = stack_[f];
    bool has_work = false;
    for (size_t j = frame.next; j < frame.actions.size(); ++j)
      if (!frame.sleep[j]) {
        has_work = true;
        break;
      }
    if (!has_work) continue;
    Task task;
    task.prefix.assign(prefix_.begin(),
                       prefix_.begin() +
                           static_cast<ptrdiff_t>(seed_depth_ + f));
    task.path = base_path_;
    for (size_t i = 0; i < f; ++i)
      task.path.push_back(static_cast<uint32_t>(stack_[i].next - 1));
    task.frame = frame;  // remaining siblings move away ...
    // ... and are cut from the local frame. Truncating, not advancing
    // `next`, keeps next - 1 naming the child on the stack, which every
    // later path (violations, donations, suspended tasks) is read from.
    frame.actions.resize(frame.next);
    frame.sleep.resize(frame.next);
    frame.sealed.resize(frame.next);
    cfg_.spill_sink(std::move(task));
    return true;
  }
  cfg_.shared->spill_requests.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void Explorer::record_violation(std::vector<Action> schedule,
                                std::vector<std::string> reports,
                                std::vector<uint32_t> path,
                                ExploreResult& result) {
  Violation v{std::move(schedule), std::move(reports), std::move(path)};
  if (cfg_.minimize) minimize_violation(cfg_.world, v, result);
  result.violations.push_back(std::move(v));
}

ExploreResult Explorer::run() {
  DQME_CHECK_MSG(!ran_, "Explorer::run() is single-shot");
  ran_ = true;
  ExploreResult result = std::move(carried_);
  carried_ = {};

  if (stack_.empty()) {  // fresh start (vs. a loaded frontier / seed)
    DQME_CHECK(prefix_.empty());
    sync_world(result);
    std::vector<Action> actions;
    world_->enabled(actions);
    if (world_->quiescent()) {  // degenerate: nothing ever happens
      world_->seal();
      ++result.schedules;
      if (cfg_.shared)
        cfg_.shared->schedules.fetch_add(1, std::memory_order_relaxed);
      if (world_->violations() > 0)
        record_violation({}, world_->reports(), base_path_, result);
      result.complete = result.violations.empty();
      return result;
    }
    Frame root;
    root.sleep.assign(actions.size(), 0);
    root.sealed.assign(actions.size(), 0);
    root.actions = std::move(actions);
    stack_.push_back(std::move(root));
  }

  while (!stack_.empty()) {
    // Loop-top invariant: stack_[k] is the node reached by prefix_[0..
    // seed_depth_+k-1], so stack_.size() + seed_depth_ == prefix_.size()
    // + 1. Frontier save/load and task donation rely on it.
    if (cfg_.shared != nullptr) {
      if (cfg_.shared->stop.load(std::memory_order_relaxed) ||
          over_budget(result)) {
        cfg_.shared->stop.store(true, std::memory_order_relaxed);
        result.budget_exhausted = true;
        carried_ = result;  // counters for save_frontier
        return result;
      }
      if (cfg_.should_abort) {
        const uint64_t epoch =
            cfg_.shared->abort_epoch.load(std::memory_order_acquire);
        if (epoch != seen_epoch_) {
          seen_epoch_ = epoch;
          if (cfg_.should_abort()) {
            result.aborted = true;
            return result;
          }
        }
      }
      if (cfg_.spill_sink &&
          cfg_.shared->spill_requests.load(std::memory_order_relaxed) > 0)
        try_donate();
    } else if (over_budget(result)) {
      result.budget_exhausted = true;
      carried_ = result;  // counters for save_frontier
      return result;
    }
    Frame& frame = stack_.back();
    while (frame.next < frame.actions.size() && frame.sleep[frame.next]) {
      ++frame.next;
      ++result.sleep_skips;
    }
    if (frame.next >= frame.actions.size()) {  // all siblings done
      stack_.pop_back();
      if (prefix_.size() > seed_depth_) {
        prefix_.pop_back();
        world_matches_ = false;
      }
      continue;
    }
    const size_t chosen = frame.next++;
    const Action action = frame.actions[chosen];

    if (!world_matches_) sync_world(result);
    world_->apply(action);
    prefix_.push_back(action);
    ++result.nodes;
    if (cfg_.shared)
      cfg_.shared->nodes.fetch_add(1, std::memory_order_relaxed);

    if (world_->violations() > 0) {
      // Safety already broken: every extension of this prefix violates
      // too, so the path ends here (and gets minimized by replay).
      ++result.schedules;
      if (cfg_.shared)
        cfg_.shared->schedules.fetch_add(1, std::memory_order_relaxed);
      frame.sealed[chosen] = 1;
      record_violation(prefix_, world_->reports(), current_path(), result);
      world_matches_ = false;
      prefix_.pop_back();
      if (cfg_.stop_on_violation) return result;
      continue;
    }
    if (cfg_.max_depth > 0 &&
        prefix_.size() >= static_cast<size_t>(cfg_.max_depth)) {
      ++result.truncated;
      frame.sealed[chosen] = 1;
      world_matches_ = false;
      prefix_.pop_back();
      continue;
    }

    std::vector<Action> child_actions;
    world_->enabled(child_actions);
    if (world_->quiescent()) {  // complete schedule
      world_->seal();
      ++result.schedules;
      if (cfg_.shared)
        cfg_.shared->schedules.fetch_add(1, std::memory_order_relaxed);
      frame.sealed[chosen] = 1;
      world_matches_ = false;  // a sealed world takes no further actions
      if (world_->violations() > 0) {
        record_violation(prefix_, world_->reports(), current_path(),
                         result);
        if (cfg_.stop_on_violation) {
          prefix_.pop_back();
          return result;
        }
      }
      prefix_.pop_back();
      continue;
    }

    std::vector<char> child_sleep(child_actions.size(), 0);
    if (cfg_.por) {
      // Sleep sets: a sibling that is already explored (or itself asleep)
      // and independent of the chosen action would reach a state whose
      // exploration the sibling's own subtree already covers — put it to
      // sleep in the child. Under Dpor::kSource an explored sibling whose
      // application immediately ended the schedule (sealed/violating/
      // truncated) is exempt: its "subtree" had no extensions, so it must
      // stay awake here to keep every reordering represented (this is what
      // makes the refined crash relation sound against the crash-at-
      // quiescence enabledness gate).
      for (size_t j = 0; j < frame.actions.size(); ++j) {
        if (j == chosen) continue;
        const bool asleep = frame.sleep[j] != 0;
        const bool explored = j < chosen && !asleep;
        if (!asleep && !explored) continue;
        if (explored && cfg_.dpor == Dpor::kSource && frame.sealed[j])
          continue;
        if (!independent(frame.actions[j], action, cfg_.dpor)) continue;
        for (size_t k = 0; k < child_actions.size(); ++k)
          if (child_actions[k] == frame.actions[j]) child_sleep[k] = 1;
      }
    }
    Frame child;
    child.sleep = std::move(child_sleep);
    child.sealed.assign(child_actions.size(), 0);
    child.actions = std::move(child_actions);
    if (cfg_.spill_depth > 0 && prefix_.size() >= cfg_.spill_depth &&
        cfg_.spill_sink) {
      // Split phase: package this node as a Task instead of exploring it.
      cfg_.spill_sink(Task{prefix_, current_path(), std::move(child)});
      world_matches_ = false;
      prefix_.pop_back();
      continue;
    }
    stack_.push_back(std::move(child));
    if ((stack_.size() - 1) % kCheckpointSpacing == 0)
      save_checkpoint(stack_.size() - 1);
  }

  result.complete = result.truncated == 0;
  return result;
}

std::vector<Task> Explorer::suspended_tasks() const {
  std::vector<Task> tasks;
  std::vector<uint32_t> path = base_path_;
  for (size_t i = 0; i < stack_.size(); ++i) {
    const Frame& f = stack_[i];
    const bool leaf = i + 1 == stack_.size();
    // An ancestor keeps its unexplored siblings (its chosen child is the
    // deeper tasks' business); the leaf continues the in-flight descent.
    if (f.next < f.actions.size() || leaf) {
      Task t;
      t.prefix.assign(prefix_.begin(),
                      prefix_.begin() +
                          static_cast<ptrdiff_t>(seed_depth_ + i));
      t.path = path;
      t.frame = f;
      tasks.push_back(std::move(t));
    }
    if (!leaf) path.push_back(static_cast<uint32_t>(f.next - 1));
  }
  return tasks;
}

namespace {

std::string bits_to_string(const std::vector<char>& bits) {
  std::string out(bits.size(), '0');
  for (size_t j = 0; j < bits.size(); ++j)
    if (bits[j]) out[j] = '1';
  return out;
}

bool bits_from_string(const std::string& s, size_t expect,
                      std::vector<char>& out) {
  if (s.size() != expect) return false;
  out.assign(s.size(), 0);
  for (size_t j = 0; j < s.size(); ++j) {
    if (s[j] == '1')
      out[j] = 1;
    else if (s[j] != '0')
      return false;
  }
  return true;
}

}  // namespace

void Explorer::save_frontier(std::ostream& os) const {
  os << "{\"dqme_frontier\":1,";
  write_config_fields(os, cfg_.world);
  os << ",\"dpor\":\"" << to_string(cfg_.dpor) << "\"";
  os << ",\"schedules\":" << carried_.schedules
     << ",\"truncated\":" << carried_.truncated
     << ",\"nodes\":" << carried_.nodes
     << ",\"replays\":" << carried_.replays
     << ",\"restores\":" << carried_.restores
     << ",\"replay_steps\":" << carried_.replay_steps
     << ",\"sleep_skips\":" << carried_.sleep_skips << "}\n";
  for (size_t i = 0; i < stack_.size(); ++i) {
    const Frame& f = stack_[i];
    os << "{\"frame\":" << i << ",\"actions\":\""
       << encode_actions(f.actions) << "\",\"sleep\":\""
       << bits_to_string(f.sleep) << "\",\"sealed\":\""
       << bits_to_string(f.sealed) << "\",\"next\":" << f.next << "}\n";
  }
}

bool Explorer::load_frontier(std::istream& is, std::string* error) {
  const auto fail = [&](const char* what) {
    if (error) *error = what;
    return false;
  };
  DQME_CHECK_MSG(!ran_, "load_frontier after run()");
  std::string line;
  if (!std::getline(is, line)) return fail("empty frontier file");
  long marker = 0;
  if (!json_field_num(line, "dqme_frontier", marker) || marker != 1)
    return fail("not a dqme_frontier file");
  if (!read_config_fields(line, cfg_.world, error)) return false;
  std::string dpor;
  if (json_field_str(line, "dpor", dpor)) cfg_.dpor = dpor_from_string(dpor);
  long num = 0;
  const auto counter = [&](const char* key, uint64_t& slot) {
    if (json_field_num(line, key, num)) slot = static_cast<uint64_t>(num);
  };
  carried_ = {};
  counter("schedules", carried_.schedules);
  counter("truncated", carried_.truncated);
  counter("nodes", carried_.nodes);
  counter("replays", carried_.replays);
  counter("restores", carried_.restores);
  counter("replay_steps", carried_.replay_steps);
  counter("sleep_skips", carried_.sleep_skips);

  stack_.clear();
  prefix_.clear();
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    Frame frame;
    std::string actions;
    std::string bits;
    if (!json_field_str(line, "actions", actions) ||
        !decode_actions(actions, frame.actions))
      return fail("malformed frontier frame actions");
    if (!json_field_str(line, "sleep", bits) ||
        !bits_from_string(bits, frame.actions.size(), frame.sleep))
      return fail("malformed frontier frame sleep set");
    if (json_field_str(line, "sealed", bits)) {
      if (!bits_from_string(bits, frame.actions.size(), frame.sealed))
        return fail("malformed frontier frame sealed set");
    } else {
      frame.sealed.assign(frame.actions.size(), 0);  // pre-sealed files
    }
    if (!json_field_num(line, "next", num) || num < 0 ||
        static_cast<size_t>(num) > frame.actions.size())
      return fail("malformed frontier frame cursor");
    frame.next = static_cast<size_t>(num);
    stack_.push_back(std::move(frame));
  }
  if (stack_.empty()) return fail("frontier has no frames");
  // The prefix is implicit: each non-leaf frame's last-chosen action.
  for (size_t k = 0; k + 1 < stack_.size(); ++k) {
    if (stack_[k].next == 0) return fail("frontier frame never descended");
    prefix_.push_back(stack_[k].actions[stack_[k].next - 1]);
  }
  world_matches_ = false;
  return true;
}

}  // namespace dqme::verify
