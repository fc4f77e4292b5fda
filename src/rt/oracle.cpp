#include "rt/oracle.h"

#include <atomic>
#include <memory>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "net/delay_model.h"
#include "harness/deployment.h"
#include "net/network.h"
#include "rt/runtime.h"
#include "sim/simulator.h"

namespace dqme::rt {

namespace {

mutex::AlgoOptions algo_options(const EquivConfig& cfg) {
  mutex::AlgoOptions opts;
  opts.fault_tolerant = cfg.fault_tolerant;
  opts.num_locks = cfg.num_locks;
  return opts;
}

// Shared construction so both backends wire byte-identical protocol stacks:
// one Deployment, each site behind a DecisionLog that re-attaches in its
// place.
struct Stack {
  harness::Deployment dep;
  std::vector<std::unique_ptr<DecisionLog>> logs;

  Stack(const EquivConfig& cfg, net::Executor& exec)
      : dep(cfg.algo, cfg.n, cfg.quorum, algo_options(cfg), exec) {
    for (mutex::MutexSite* site : dep.sites()) {
      logs.push_back(std::make_unique<DecisionLog>());
      logs.back()->bind(exec, *site);
    }
  }

  SiteLogs collect() const {
    SiteLogs out;
    out.reserve(logs.size());
    for (const auto& l : logs) out.push_back(l->records());
    return out;
  }
};

}  // namespace

OracleResult run_sim_oracle(const EquivConfig& cfg) {
  DQME_CHECK(cfg.n >= 2 && cfg.requests_per_site >= 1);
  OracleResult res;

  sim::Simulator sim;
  net::Network net(sim, cfg.n,
                   std::make_unique<net::UniformDelay>(
                       cfg.mean_delay / 2, cfg.mean_delay + cfg.mean_delay / 2),
                   cfg.seed * 7919 + 13);
  Stack stack(cfg, net);

  // Every delivery the simulator performs becomes a kDeliver step — the
  // hook fires before the receiver's handler, i.e. exactly at the point the
  // rt replay will pop the channel.
  net.subscribe_delivery([&res](const net::Message& m, LockId lock) {
    res.steps.push_back({Step::kDeliver, m.dst, m.src, lock});
  });

  // Per-site driver script: `requests_per_site` CS cycles on seeded-random
  // locks with jittered hold/think times. All rng draws happen sim-side
  // only; the replay takes every decision from the recorded steps.
  struct Script {
    int remaining = 0;
    Rng rng{1};
  };
  std::vector<Script> script(static_cast<size_t>(cfg.n));
  for (SiteId s = 0; s < cfg.n; ++s) {
    script[static_cast<size_t>(s)].remaining = cfg.requests_per_site;
    script[static_cast<size_t>(s)].rng =
        Rng(cfg.seed * 1'000'003 + static_cast<uint64_t>(s) * 97 + 11);
  }

  // The issue/exit events reference each other recursively; keep the
  // lambdas alive in std::functions the events capture by reference.
  std::function<void(SiteId)> issue;
  std::function<void(SiteId, LockId)> next_or_done;

  issue = [&](SiteId s) {
    if (!net.alive(s)) return;  // crashed before its turn came
    Script& sc = script[static_cast<size_t>(s)];
    DQME_CHECK(sc.remaining > 0);
    const LockId lock =
        cfg.num_locks > 1
            ? static_cast<LockId>(sc.rng.uniform_int(0, cfg.num_locks - 1))
            : kLock0;
    res.steps.push_back({Step::kIssue, s, kNoSite, lock});
    stack.dep.site(s).request_cs(lock);
  };

  next_or_done = [&](SiteId s, LockId /*lock*/) {
    Script& sc = script[static_cast<size_t>(s)];
    --sc.remaining;
    if (sc.remaining <= 0) return;
    const Time gap =
        1 + sc.rng.uniform_int(cfg.gap_ticks / 2, cfg.gap_ticks * 2);
    sim.schedule_after(gap, [&issue, s] { issue(s); });
  };

  for (SiteId s = 0; s < cfg.n; ++s) {
    mutex::MutexSite* raw = &stack.dep.site(s);
    raw->on_enter = [&, s](SiteId, LockId lock) {
      Script& sc = script[static_cast<size_t>(s)];
      const Time hold =
          1 + sc.rng.uniform_int(cfg.hold_ticks / 2, cfg.hold_ticks * 2);
      sim.schedule_after(hold, [&, s, lock] {
        if (!net.alive(s)) return;  // crashed while inside the CS
        res.steps.push_back({Step::kExit, s, kNoSite, lock});
        stack.dep.site(s).release_cs(lock);
        next_or_done(s, lock);
      });
    };
    // §6: the site abandoned this request (no quorum formable). The
    // attempt is consumed; think, then move on to the next one.
    raw->on_abort = [&, s](SiteId, LockId lock) { next_or_done(s, lock); };
    const Time start = 1 + script[static_cast<size_t>(s)].rng.uniform_int(
                               0, cfg.gap_ticks);
    sim.schedule_at(start, [&issue, s] { issue(s); });
  }

  // Crash script: fail the victim, then mirror core::FailureDetector —
  // per-site jittered notices injected directly into the receivers (the
  // wrappers, so the notice lands in both backends' decision logs).
  if (cfg.crash_victim != kNoSite) {
    DQME_CHECK(0 <= cfg.crash_victim && cfg.crash_victim < cfg.n);
    sim.schedule_at(cfg.crash_at, [&] {
      const SiteId victim = cfg.crash_victim;
      res.steps.push_back({Step::kCrash, victim, kNoSite, kLock0});
      net.crash(victim);
      Rng detect_rng(cfg.seed * 31 + 5);
      for (SiteId s = 0; s < cfg.n; ++s) {
        if (s == victim || !net.alive(s)) continue;
        const Time when =
            cfg.detection_latency +
            (cfg.detection_jitter > 0
                 ? detect_rng.uniform_int(0, cfg.detection_jitter)
                 : 0);
        sim.schedule_after(when, [&, s, victim] {
          if (!net.alive(s)) return;
          res.steps.push_back({Step::kNotice, s, victim, kLock0});
          stack.logs[static_cast<size_t>(s)]->on_message(
              net::make_failure_notice(victim), kLock0);
        });
      }
    });
  }

  sim.run();

  res.logs = stack.collect();
  res.cs_entries = stack.dep.totals().cs_entries;
  res.ok = net.stats().in_flight() == 0;
  for (SiteId s = 0; s < cfg.n; ++s) {
    if (!net.alive(s)) continue;
    if (script[static_cast<size_t>(s)].remaining > 0) {
      res.ok = false;
      res.error = "site " + std::to_string(s) + " finished with " +
                  std::to_string(script[static_cast<size_t>(s)].remaining) +
                  " requests outstanding";
    }
  }
  return res;
}

SiteLogs run_rt_replay(const EquivConfig& cfg,
                       const std::vector<Step>& steps) {
  RuntimeOptions ropts;
  Runtime rtc(cfg.n, ropts);
  Stack stack(cfg, rtc);

  // One global turn counter sequences the trace: step i runs on the owning
  // site's thread; the release-store publishing turn i+1 also publishes
  // every ring push step i performed, so a later kDeliver turn always finds
  // its message (or spins until the owning spill flush lands it).
  std::atomic<size_t> turn{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(cfg.n));
  for (SiteId me = 0; me < cfg.n; ++me) {
    threads.emplace_back([&, me] {
      size_t i;
      while ((i = turn.load(std::memory_order_acquire)) < steps.size()) {
        const Step& st = steps[i];
        if (st.site != me) {
          // Not my turn: keep my spilled messages flowing so a consumer
          // waiting on my channel can make progress, then back off.
          rtc.flush_spills(me);
          std::this_thread::yield();
          continue;
        }
        switch (st.kind) {
          case Step::kIssue:
            stack.dep.site(me).request_cs(st.lock);
            break;
          case Step::kExit:
            stack.dep.site(me).release_cs(st.lock);
            break;
          case Step::kDeliver:
            while (!rtc.try_deliver_one(st.aux, me)) {
              rtc.flush_spills(me);
              std::this_thread::yield();
            }
            break;
          case Step::kCrash:
            rtc.crash(me);
            break;
          case Step::kNotice:
            stack.logs[static_cast<size_t>(me)]->on_message(
                net::make_failure_notice(st.aux), kLock0);
            break;
          default:
            DQME_CHECK_MSG(false, "unknown step kind");
        }
        turn.store(i + 1, std::memory_order_release);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Crash-run residue: traffic the simulator dropped at the dead site
  // stays parked in its rings here. Discard it; drops are terminal per
  // channel, so it can never have blocked a replayed delivery.
  rtc.drain_residue();
  return stack.collect();
}

}  // namespace dqme::rt
