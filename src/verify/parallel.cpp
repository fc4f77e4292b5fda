#include "verify/parallel.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

#include "common/check.h"

namespace dqme::verify {

namespace {

// DFS preorder over index paths: lexicographic, with a proper prefix
// ordering before its extensions (the parent before its subtree).
bool path_less(const std::vector<uint32_t>& a,
               const std::vector<uint32_t>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                      b.end());
}

std::string path_to_string(const std::vector<uint32_t>& path) {
  std::string out;
  for (uint32_t p : path) {
    if (!out.empty()) out += ' ';
    out += std::to_string(p);
  }
  return out;
}

bool path_from_string(const std::string& s, std::vector<uint32_t>& out) {
  out.clear();
  std::istringstream is(s);
  long v = 0;
  while (is >> v) {
    if (v < 0) return false;
    out.push_back(static_cast<uint32_t>(v));
  }
  return is.eof();
}

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

// Everything the worker threads share. Queue discipline: FIFO in split
// order (DFS preorder), so the early intervals — the ones a violation can
// never discard — start first.
struct Pool {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Task> queue;
  size_t active = 0;  // workers currently running a task
  bool stop_dequeue = false;

  SharedControl ctl;

  // Per finished task: where its DFS interval starts and what it counted.
  // The merge happens after join, ordered by start.
  struct Done {
    std::vector<uint32_t> start;
    ExploreResult result;
  };
  std::vector<Done> done;
  std::vector<Task> suspended;  // re-packaged stacks of budgeted tasks

  // Best (DFS-first) violation so far; guarded by mu.
  bool have_best = false;
  std::vector<uint32_t> best;

  std::exception_ptr error;  // first worker exception, rethrown by run()
};

void note_violations(Pool& pool, const ExploreResult& result,
                     bool stop_on_violation) {
  if (result.violations.empty() || !stop_on_violation) return;
  std::lock_guard<std::mutex> lock(pool.mu);
  for (const Violation& v : result.violations) {
    if (!pool.have_best || path_less(v.path, pool.best)) {
      pool.have_best = true;
      pool.best = v.path;
      pool.ctl.abort_epoch.fetch_add(1, std::memory_order_release);
    }
  }
}

void worker_main(Pool& pool, const ExplorerConfig& base) {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(pool.mu);
      bool requested = false;
      while (pool.queue.empty()) {
        if (pool.stop_dequeue || pool.active == 0) {
          pool.cv.notify_all();  // fellow waiters re-check and exit too
          return;
        }
        // Post a request on going idle, and again whenever none is left
        // outstanding. Donors claim requests anonymously, so an idle
        // worker cannot tell whether its own was answered — another
        // worker may have taken that task — and it never withdraws one: a
        // spare request costs one extra donated task, a lost one would
        // leave this worker idle while others still hold work.
        if (!requested ||
            pool.ctl.spill_requests.load(std::memory_order_relaxed) <= 0) {
          requested = true;
          pool.ctl.spill_requests.fetch_add(1, std::memory_order_relaxed);
        }
        // Timed wait: donors have no handle on the cv while exploring, so
        // poll; 5ms is invisible next to any real subtree.
        pool.cv.wait_for(lock, std::chrono::milliseconds(5));
      }
      if (pool.stop_dequeue) return;
      task = std::move(pool.queue.front());
      pool.queue.pop_front();
      ++pool.active;
    }

    try {
      ExplorerConfig cfg = base;
      cfg.minimize = false;  // the driver minimizes the chosen one
      cfg.shared = &pool.ctl;
      cfg.spill_depth = 0;
      cfg.spill_sink = [&pool](Task&& donated) {
        std::lock_guard<std::mutex> lock(pool.mu);
        pool.queue.push_back(std::move(donated));
        pool.cv.notify_one();
      };
      // The task's interval starts at its root's first unexplored child.
      // A donated task shares its root with the donor's explored siblings:
      // by root alone it would order before a violation the donor finds
      // among them, though its own interval lies after that violation.
      std::vector<uint32_t> start = task.path;
      start.push_back(static_cast<uint32_t>(task.frame.next));
      if (cfg.stop_on_violation) {
        cfg.should_abort = [&pool, start]() {
          std::lock_guard<std::mutex> lock(pool.mu);
          return pool.have_best && path_less(pool.best, start);
        };
      }
      Explorer explorer(cfg);
      explorer.seed(std::move(task));
      ExploreResult result = explorer.run();
      note_violations(pool, result, cfg.stop_on_violation);
      {
        std::lock_guard<std::mutex> lock(pool.mu);
        if (result.budget_exhausted) {
          auto rest = explorer.suspended_tasks();
          pool.suspended.insert(pool.suspended.end(),
                                std::make_move_iterator(rest.begin()),
                                std::make_move_iterator(rest.end()));
          pool.stop_dequeue = true;
        }
        pool.done.push_back({start, std::move(result)});
        --pool.active;
        pool.cv.notify_all();
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(pool.mu);
      if (!pool.error) pool.error = std::current_exception();
      pool.stop_dequeue = true;
      pool.ctl.stop.store(true, std::memory_order_relaxed);
      --pool.active;
      pool.cv.notify_all();
      return;
    }
  }
}

}  // namespace

ParallelExplorer::ParallelExplorer(ParallelConfig cfg)
    : cfg_(std::move(cfg)) {
  if (cfg_.workers < 1) cfg_.workers = 1;
  if (cfg_.split_depth == 0) cfg_.split_depth = kDefaultSplitDepth;
}

ParallelResult ParallelExplorer::run() {
  DQME_CHECK_MSG(!ran_, "ParallelExplorer::run() is single-shot");
  ran_ = true;
  ParallelResult out;
  Pool pool;
  pool.ctl.schedules.store(carried_.schedules, std::memory_order_relaxed);
  pool.ctl.nodes.store(carried_.nodes, std::memory_order_relaxed);

  ExploreResult split_result = {};
  if (!loaded_) {
    // Split phase: sequential and worker-count independent, so the task
    // partition (and with it every merged structural counter) is too. Its
    // spilled nodes seed the queue in DFS preorder.
    ExplorerConfig split_cfg = cfg_.base;
    split_cfg.minimize = false;
    split_cfg.shared = &pool.ctl;
    split_cfg.spill_depth = cfg_.split_depth;
    split_cfg.spill_sink = [&pool](Task&& t) {
      pool.queue.push_back(std::move(t));
    };
    Explorer split(split_cfg);
    split_result = split.run();
    note_violations(pool, split_result, cfg_.base.stop_on_violation);
    if (split_result.budget_exhausted) {
      for (Task& t : split.suspended_tasks())
        pool.suspended.push_back(std::move(t));
      pool.stop_dequeue = true;
    }
  } else {
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const Task& a, const Task& b) {
                       return path_less(a.path, b.path);
                     });
    for (Task& t : pending_) pool.queue.push_back(std::move(t));
    pending_.clear();
  }
  const uint64_t initial_tasks = pool.queue.size();

  if (!pool.queue.empty() && !pool.stop_dequeue) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(cfg_.workers));
    for (int w = 0; w < cfg_.workers; ++w)
      threads.emplace_back(worker_main, std::ref(pool),
                           std::cref(cfg_.base));
    for (std::thread& t : threads) t.join();
  }
  if (pool.error) std::rethrow_exception(pool.error);

  // ---- Deterministic merge ----
  ExploreResult merged = {};
  merge_counters(merged, carried_);
  merge_counters(merged, split_result);

  std::stable_sort(pool.done.begin(), pool.done.end(),
                   [](const Pool::Done& a, const Pool::Done& b) {
                     return path_less(a.start, b.start);
                   });
  out.tasks_run = pool.done.size();
  out.tasks_donated =
      pool.done.size() + pool.queue.size() > initial_tasks
          ? pool.done.size() + pool.queue.size() - initial_tasks
          : 0;

  std::vector<Violation> violations = std::move(split_result.violations);
  for (Pool::Done& d : pool.done)
    for (Violation& v : d.result.violations)
      violations.push_back(std::move(v));
  std::stable_sort(violations.begin(), violations.end(),
                   [](const Violation& a, const Violation& b) {
                     return path_less(a.path, b.path);
                   });

  if (cfg_.base.stop_on_violation && !violations.empty()) {
    // Counters: split phase + every task starting at-or-before the chosen
    // violation; the violating task's own interval contains it, so
    // "at-or-before" keeps its stopped-short partial. Intervals after it
    // are the work single-threaded DFS would never have started.
    const std::vector<uint32_t>& best = violations.front().path;
    for (const Pool::Done& d : pool.done) {
      if (path_less(best, d.start)) {
        ++out.tasks_discarded;
        continue;
      }
      merge_counters(merged, d.result);
    }
    Violation chosen = std::move(violations.front());
    if (cfg_.base.minimize)
      minimize_violation(cfg_.base.world, chosen, merged);
    merged.violations.push_back(std::move(chosen));
    merged.complete = false;
  } else {
    for (const Pool::Done& d : pool.done) merge_counters(merged, d.result);
    for (Violation& v : violations) {
      if (cfg_.base.minimize)
        minimize_violation(cfg_.base.world, v, merged);
      merged.violations.push_back(std::move(v));
    }
    merged.complete = !merged.budget_exhausted && merged.truncated == 0;
  }

  // Remaining work for save_frontier: tasks nobody started plus the
  // suspended stacks, in DFS order.
  leftover_ = std::move(pool.suspended);
  for (Task& t : pool.queue) leftover_.push_back(std::move(t));
  std::stable_sort(leftover_.begin(), leftover_.end(),
                   [](const Task& a, const Task& b) {
                     return path_less(a.path, b.path);
                   });
  carried_ = {};
  carried_.schedules = merged.schedules;
  carried_.truncated = merged.truncated;
  carried_.nodes = merged.nodes;
  carried_.replays = merged.replays;
  carried_.restores = merged.restores;
  carried_.replay_steps = merged.replay_steps;
  carried_.sleep_skips = merged.sleep_skips;
  out.merged = std::move(merged);
  return out;
}

void ParallelExplorer::save_frontier(std::ostream& os) const {
  os << "{\"dqme_frontier\":2,";
  write_config_fields(os, cfg_.base.world);
  os << ",\"dpor\":\"" << to_string(cfg_.base.dpor) << "\"";
  os << ",\"schedules\":" << carried_.schedules
     << ",\"truncated\":" << carried_.truncated
     << ",\"nodes\":" << carried_.nodes
     << ",\"replays\":" << carried_.replays
     << ",\"restores\":" << carried_.restores
     << ",\"replay_steps\":" << carried_.replay_steps
     << ",\"sleep_skips\":" << carried_.sleep_skips
     << ",\"tasks\":" << leftover_.size() << "}\n";
  for (size_t i = 0; i < leftover_.size(); ++i) {
    const Task& t = leftover_[i];
    os << "{\"task\":" << i << ",\"prefix\":\"" << encode_actions(t.prefix)
       << "\",\"path\":\"" << path_to_string(t.path) << "\",\"actions\":\""
       << encode_actions(t.frame.actions) << "\",\"sleep\":\""
       << bits_to_string(t.frame.sleep) << "\",\"sealed\":\""
       << bits_to_string(t.frame.sealed) << "\",\"next\":" << t.frame.next
       << "}\n";
  }
}

bool ParallelExplorer::load_frontier(std::istream& is, std::string* error) {
  const auto fail = [&](const char* what) {
    if (error) *error = what;
    return false;
  };
  DQME_CHECK_MSG(!ran_, "load_frontier after run()");
  std::string header;
  if (!std::getline(is, header)) return fail("empty frontier file");
  long marker = 0;
  if (!json_field_num(header, "dqme_frontier", marker))
    return fail("not a dqme_frontier file");
  long num = 0;
  const auto counter = [&](const char* key, uint64_t& slot) {
    if (json_field_num(header, key, num)) slot = static_cast<uint64_t>(num);
  };

  if (marker == 1) {
    // Sequential v1 single-stack format: let the Explorer parse it, then
    // re-package the stack as tasks — the same partition a suspension
    // would have produced.
    std::stringstream whole;
    whole << header << "\n" << is.rdbuf();
    Explorer probe{ExplorerConfig{cfg_.base}};
    if (!probe.load_frontier(whole, error)) return false;
    cfg_.base.world = probe.config().world;
    cfg_.base.dpor = probe.config().dpor;
    pending_ = probe.suspended_tasks();
    if (pending_.empty()) return fail("frontier has no frames");
  } else if (marker == 2) {
    if (!read_config_fields(header, cfg_.base.world, error)) return false;
    std::string s;
    if (json_field_str(header, "dpor", s))
      cfg_.base.dpor = dpor_from_string(s);
    pending_.clear();
    std::string line;
    while (std::getline(is, line)) {
      if (line.empty()) continue;
      Task t;
      std::string field;
      if (!json_field_str(line, "prefix", field) ||
          !decode_actions(field, t.prefix))
        return fail("malformed frontier task prefix");
      if (!json_field_str(line, "path", field) ||
          !path_from_string(field, t.path))
        return fail("malformed frontier task path");
      if (!json_field_str(line, "actions", field) ||
          !decode_actions(field, t.frame.actions))
        return fail("malformed frontier task actions");
      if (!json_field_str(line, "sleep", field) ||
          !bits_from_string(field, t.frame.actions.size(), t.frame.sleep))
        return fail("malformed frontier task sleep set");
      if (json_field_str(line, "sealed", field)) {
        if (!bits_from_string(field, t.frame.actions.size(),
                              t.frame.sealed))
          return fail("malformed frontier task sealed set");
      } else {
        t.frame.sealed.assign(t.frame.actions.size(), 0);
      }
      if (!json_field_num(line, "next", num) || num < 0 ||
          static_cast<size_t>(num) > t.frame.actions.size())
        return fail("malformed frontier task cursor");
      t.frame.next = static_cast<size_t>(num);
      pending_.push_back(std::move(t));
    }
    if (pending_.empty()) return fail("frontier has no tasks");
  } else {
    return fail("unknown dqme_frontier version");
  }

  carried_ = {};
  counter("schedules", carried_.schedules);
  counter("truncated", carried_.truncated);
  counter("nodes", carried_.nodes);
  counter("replays", carried_.replays);
  counter("restores", carried_.restores);
  counter("replay_steps", carried_.replay_steps);
  counter("sleep_skips", carried_.sleep_skips);
  loaded_ = true;
  return true;
}

}  // namespace dqme::verify
