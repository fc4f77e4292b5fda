#include "harness/sweep.h"

#include <atomic>
#include <cmath>
#include <exception>
#include <thread>

namespace dqme::harness {

namespace {

void check_run(const ExperimentResult& res, const ExperimentConfig& cfg) {
  DQME_CHECK_MSG(res.summary.violations == 0,
                 "mutual exclusion violated at seed " << cfg.seed);
  DQME_CHECK_MSG(res.drained_clean,
                 "requests left outstanding at seed " << cfg.seed);
  DQME_CHECK_MSG(res.invariant_violations == 0,
                 "invariant checker flagged seed "
                     << cfg.seed << ": "
                     << (res.invariant_reports.empty()
                             ? "(no report)"
                             : res.invariant_reports.front()));
}

}  // namespace

SweepRunner::SweepRunner(SweepOptions opts) : opts_(opts) {
  DQME_CHECK(opts_.jobs >= 0);
}

std::vector<ExperimentResult> SweepRunner::run(
    const std::vector<ExperimentConfig>& configs) const {
  if (configs.size() > 1)
    for (const ExperimentConfig& cfg : configs)
      DQME_CHECK_MSG(cfg.capture == nullptr,
                     "a capture is single-run: workers would race on a "
                     "capture shared across a sweep");

  std::vector<std::function<ExperimentResult()>> jobs;
  jobs.reserve(configs.size());
  for (const ExperimentConfig& cfg : configs)
    jobs.push_back([this, &cfg] {
      ExperimentResult res = run_experiment(cfg);
      if (opts_.check_integrity) check_run(res, cfg);
      return res;
    });
  return run_jobs(jobs);
}

std::vector<ExperimentResult> SweepRunner::run_jobs(
    const std::vector<std::function<ExperimentResult()>>& jobs) const {
  std::vector<ExperimentResult> results(jobs.size());
  if (jobs.empty()) return results;

  std::vector<std::exception_ptr> errors(jobs.size());
  std::atomic<size_t> cursor{0};
  auto worker = [&] {
    for (;;) {
      const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      try {
        results[i] = jobs[i]();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  int workers = opts_.jobs;
  if (workers == 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers <= 0) workers = 1;
  }
  if (static_cast<size_t>(workers) > jobs.size())
    workers = static_cast<int>(jobs.size());

  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(workers));
    for (int t = 0; t < workers; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }

  // Report the lowest-indexed failure so the error seen does not depend on
  // worker scheduling.
  for (auto& err : errors)
    if (err) std::rethrow_exception(err);
  return results;
}

std::vector<ExperimentConfig> expand_seeds(const ExperimentConfig& cfg,
                                           int seeds) {
  DQME_CHECK(seeds >= 1);
  std::vector<ExperimentConfig> grid;
  grid.reserve(static_cast<size_t>(seeds));
  for (int r = 0; r < seeds; ++r) {
    grid.push_back(cfg);
    grid.back().seed = cfg.seed + static_cast<uint64_t>(r);
  }
  return grid;
}

obs::Registry merge_registries(std::span<const ExperimentResult> results) {
  obs::Registry merged;
  // Index order == config order: the merge is bit-identical for any --jobs.
  for (const ExperimentResult& r : results) merged.merge(r.registry);
  return merged;
}

Replicated aggregate(std::span<const ExperimentResult> results,
                     const std::function<double(const ExperimentResult&)>&
                         metric) {
  DQME_CHECK(!results.empty());
  Replicated out;
  for (const ExperimentResult& r : results) out.mean += metric(r);
  out.mean /= static_cast<double>(results.size());
  if (results.size() > 1) {
    double ss = 0;
    for (const ExperimentResult& r : results) {
      const double d = metric(r) - out.mean;
      ss += d * d;
    }
    out.sd = std::sqrt(ss / static_cast<double>(results.size() - 1));
  }
  return out;
}

}  // namespace dqme::harness
