#include "rt/driver.h"

#include <chrono>
#include <memory>

#include "common/check.h"
#include "common/rng.h"
#include "harness/deployment.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace dqme::rt {

FreeRunResult run_free(const FreeRunConfig& cfg) {
  DQME_CHECK(cfg.n >= 2 && cfg.num_locks >= 1 && cfg.target_entries >= 1);
  FreeRunResult res;

  RuntimeOptions ropts;
  ropts.ring_capacity = cfg.ring_capacity;
  ropts.obs_feed = cfg.check;
  ropts.wire_delay_us = cfg.wire_delay_us;
  Runtime rtc(cfg.n, ropts);

  mutex::AlgoOptions aopts;
  aopts.fault_tolerant = cfg.fault_tolerant;
  aopts.num_locks = cfg.num_locks;
  const harness::Deployment dep(cfg.algo, cfg.n, cfg.quorum, aopts, rtc);
  std::vector<std::unique_ptr<ObsTap>> taps;
  if (cfg.check)
    for (mutex::MutexSite* site : dep.sites())
      taps.push_back(std::make_unique<ObsTap>(rtc, *site));

  SafetyProbe probe(cfg.num_locks);

  // Per-site driver state, touched only by the owning pump thread.
  struct SiteDrv {
    std::vector<LockId> rotation;  // per-site shuffled lock order
    size_t next = 0;
    // Locks entered, awaiting top-level release. poll() swaps it with
    // `releasing` and drains that, so an entry a release triggers lands in
    // `entered` for the next poll; both keep their capacity, so the
    // handoff path allocates nothing.
    std::vector<LockId> entered;
    std::vector<LockId> releasing;
    int in_service = 0;
  };
  std::vector<SiteDrv> drv(static_cast<size_t>(cfg.n));
  for (SiteId s = 0; s < cfg.n; ++s) {
    SiteDrv& d = drv[static_cast<size_t>(s)];
    d.rotation.resize(static_cast<size_t>(cfg.num_locks));
    for (LockId l = 0; l < cfg.num_locks; ++l)
      d.rotation[static_cast<size_t>(l)] = l;
    // Seeded per-site shuffle: sites sweep the lock table in different
    // orders, so contention spreads instead of convoying on lock 0.
    Rng rng(cfg.seed * 6364136223846793005ull + static_cast<uint64_t>(s));
    for (size_t i = d.rotation.size(); i > 1; --i) {
      const size_t j =
          static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(i) - 1));
      std::swap(d.rotation[i - 1], d.rotation[j]);
    }
  }

  // on_enter fires on the entering site's own pump thread — possibly from
  // inside request_cs (an uncontended token holder). Only record it here;
  // release happens at the top of the next poll, never re-entrantly.
  for (SiteId s = 0; s < cfg.n; ++s) {
    dep.site(s).on_enter = [&, s](SiteId, LockId lock) {
      if (cfg.check) probe.enter(lock, s);
      drv[static_cast<size_t>(s)].entered.push_back(lock);
    };
  }

  std::atomic<uint64_t> entries{0};
  std::atomic<bool> stop_issuing{false};
  std::atomic<bool> timed_out{false};
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  const int depth = cfg.num_locks == 1 ? 1 : cfg.outstanding;
  bool limits_armed = false;  // site 0's thread only
  const auto poll = [&](SiteId s) -> bool {
    SiteDrv& d = drv[static_cast<size_t>(s)];
    mutex::MutexSite& site = dep.site(s);
    if (s == 0 && !limits_armed) {
      // The wall-clock limits are site-0 timers rather than checks in
      // poll: a pump with nothing to do parks, and only a timer or a
      // message wakes it.
      limits_armed = true;
      const auto us = [](double sec) { return static_cast<Time>(sec * 1e6); };
      rtc.schedule_timeout(0, us(cfg.max_seconds), [&stop_issuing] {
        stop_issuing.store(true, std::memory_order_release);
      });
      rtc.schedule_timeout(0, us(2 * cfg.max_seconds), [&timed_out, &rtc] {
        // Hard abort: something wedged (this is a bug surface, not a
        // tuning knob). Pumps exit; the result reports the failure.
        timed_out.store(true, std::memory_order_release);
        rtc.request_stop();
      });
    }
    d.releasing.swap(d.entered);
    for (const LockId lock : d.releasing) {
      if (cfg.check) probe.exit(lock, s);
      site.release_cs(lock);
      --d.in_service;
      if (entries.fetch_add(1, std::memory_order_acq_rel) + 1 >=
          cfg.target_entries)
        stop_issuing.store(true, std::memory_order_release);
    }
    d.releasing.clear();
    if (!stop_issuing.load(std::memory_order_acquire)) {
      // Keep the pipeline full: scan the rotation for idle locks. One full
      // sweep max per poll, so a site saturated on every lock backs off.
      size_t scanned = 0;
      while (d.in_service < depth && scanned < d.rotation.size()) {
        const LockId lock = d.rotation[d.next];
        d.next = (d.next + 1) % d.rotation.size();
        ++scanned;
        if (!site.idle(lock)) continue;
        site.request_cs(lock);
        ++d.in_service;
      }
    }
    return stop_issuing.load(std::memory_order_acquire) &&
           d.in_service == 0 && d.entered.empty();
  };

  rtc.run(poll);
  res.wall_seconds = elapsed();

  res.cs_entries = dep.totals().cs_entries;
  res.stats = rtc.stats();
  res.handoffs_per_sec =
      res.wall_seconds > 0
          ? static_cast<double>(res.cs_entries) / res.wall_seconds
          : 0;
  res.wire_msgs_per_sec =
      res.wall_seconds > 0
          ? static_cast<double>(res.stats.wire_messages) / res.wall_seconds
          : 0;
  res.probe_violations = probe.violations();

  res.ok = !timed_out.load() && rtc.in_flight() == 0;
  if (timed_out.load()) res.error = "hard timeout: run did not quiesce";

  if (cfg.check) {
    // Post-hoc safety/conservation audit: merge the per-site shards by
    // global stamp and replay the run through the PR-3 invariant checker.
    // The dummy network only provides the checker's constructor seam; with
    // liveness_bound 0 nothing is scheduled on it, and its (empty) stats
    // make the sim-side conservation term trivially zero — the rt-side
    // conservation statement is in_flight() == 0, asserted above.
    sim::Simulator dummy_sim;
    net::Network dummy_net(dummy_sim, cfg.n,
                           std::make_unique<net::ConstantDelay>(1), 1);
    obs::InvariantChecker checker(dummy_net, dep.invariant_options(0));
    rtc.replay_into(checker);
    res.violations = checker.violations();
    res.reports = checker.reports();
    if (res.violations > 0 || res.probe_violations > 0) res.ok = false;
  }
  return res;
}

}  // namespace dqme::rt
