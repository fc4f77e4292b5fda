// Free-run closed-loop driver for the real-threads backend: the rt
// counterpart of harness::run_experiment's heavy-load workload, used by
// bench/rt_core and `dqme_sim --backend=rt`.
//
// Each site's pump thread runs the workload in-line (Runtime::run's poll
// hook): release every lock it has entered, then keep up to `outstanding`
// requests in service across its lock rotation. With one lock the protocol
// precondition caps a site at one outstanding request (the paper's heavy
// load); with a sharded lock table the pipeline keeps many independent
// grants in flight per site, which is what lets an oversubscribed host
// amortize each scheduling slice over a deep batch of deliveries.
//
// Online safety: a per-lock atomic owner word (SafetyProbe) is CAS'd on
// every enter/exit — a genuinely concurrent mutual-exclusion violation
// trips it at the instant it happens, independent of the (post-hoc) merged
// invariant-checker replay enabled by `check`.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "mutex/factory.h"
#include "mutex/mutex_site.h"
#include "rt/runtime.h"

namespace dqme::rt {

// Span observer that streams a site's span edges into the Runtime's
// sharded observability feed (record_span), alongside any other observer
// subscribed to the site.
class ObsTap final : public mutex::SpanObserver {
 public:
  ObsTap(Runtime& rtc, mutex::MutexSite& site) : rtc_(rtc) {
    site.add_span_observer(this);
  }
  void on_span_issue(SiteId site, LockId lock, SpanId span, Time) override {
    rtc_.record_span(site, obs::EventKind::kIssue, lock, span);
  }
  void on_span_enter(SiteId site, LockId lock, SpanId span, Time) override {
    rtc_.record_span(site, obs::EventKind::kEnter, lock, span);
  }
  void on_span_exit(SiteId site, LockId lock, SpanId span, Time) override {
    rtc_.record_span(site, obs::EventKind::kExit, lock, span);
  }
  void on_span_abort(SiteId site, LockId lock, SpanId span, Time) override {
    rtc_.record_span(site, obs::EventKind::kAbort, lock, span);
  }

 private:
  Runtime& rtc_;
};

// Cheap real-time mutual-exclusion probe: one atomic owner word per lock.
class SafetyProbe {
 public:
  explicit SafetyProbe(LockId num_locks)
      : owners_(static_cast<size_t>(num_locks)) {
    for (auto& o : owners_) o.store(kNoSite, std::memory_order_relaxed);
  }
  void enter(LockId lock, SiteId site) {
    SiteId expect = kNoSite;
    if (!owners_[static_cast<size_t>(lock)].compare_exchange_strong(
            expect, site, std::memory_order_acq_rel))
      violations_.fetch_add(1, std::memory_order_relaxed);
  }
  void exit(LockId lock, SiteId site) {
    SiteId expect = site;
    if (!owners_[static_cast<size_t>(lock)].compare_exchange_strong(
            expect, kNoSite, std::memory_order_acq_rel))
      violations_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t violations() const {
    return violations_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<std::atomic<SiteId>> owners_;
  std::atomic<uint64_t> violations_{0};
};

struct FreeRunConfig {
  mutex::Algo algo = mutex::Algo::kCaoSinghal;
  int n = 4;  // sites == pump threads
  std::string quorum = "majority";
  LockId num_locks = 1;
  bool fault_tolerant = false;
  uint64_t target_entries = 1000;  // aggregate CS entries before stopping
  double max_seconds = 30.0;       // soft stop; 2x = hard abort
  int outstanding = 8;             // per-site pipeline depth (multi-lock)
  uint64_t seed = 1;
  bool check = false;  // SafetyProbe + merged invariant-checker replay
  size_t ring_capacity = 1024;
  // Emulated wire latency in microseconds — the paper's T on real threads
  // (see RuntimeOptions::wire_delay_us). 0 = raw ring speed.
  uint64_t wire_delay_us = 0;
};

struct FreeRunResult {
  bool ok = false;
  std::string error;
  uint64_t cs_entries = 0;
  double wall_seconds = 0;
  double handoffs_per_sec = 0;
  double wire_msgs_per_sec = 0;
  uint64_t violations = 0;        // merged checker replay (check only)
  uint64_t probe_violations = 0;  // real-time SafetyProbe (check only)
  std::vector<std::string> reports;
  RuntimeStats stats;
};

FreeRunResult run_free(const FreeRunConfig& cfg);

}  // namespace dqme::rt
