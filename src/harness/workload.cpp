#include "harness/workload.h"

#include <algorithm>
#include <cmath>

namespace dqme::harness {

void Backlog::grow() {
  DQME_CHECK(ring_.size() < (size_t{1} << 31));
  std::vector<Time> next(std::max<size_t>(2, 2 * ring_.size()));
  for (uint32_t i = 0; i < size_; ++i)
    next[i] = ring_[(head_ + i) & (ring_.size() - 1)];
  ring_.swap(next);
  head_ = 0;
}

Workload::Workload(sim::Simulator& sim, std::vector<mutex::MutexSite*> sites,
                   Config config, Metrics* metrics)
    : sim_(sim), cfg_(config), rng_(config.seed), metrics_(metrics) {
  DQME_CHECK(!sites.empty());
  DQME_CHECK(cfg_.num_locks >= 1);
  sites_.resize(sites.size());
  for (size_t i = 0; i < sites.size(); ++i) {
    SiteState& st = sites_[i];
    st.site = sites[i];
    DQME_CHECK(st.site->id() == static_cast<SiteId>(i));
    DQME_CHECK_MSG(st.site->num_locks() == cfg_.num_locks,
                   "workload num_locks " << cfg_.num_locks
                                         << " != site lock table "
                                         << st.site->num_locks());
    st.slots.resize(static_cast<size_t>(cfg_.num_locks));
    st.site->on_enter = [this](SiteId id, LockId lock) { entered(id, lock); };
    st.site->on_abort = [this](SiteId id, LockId lock) { aborted(id, lock); };
  }
  if (cfg_.num_locks > 1) {
    // Zipf CDF over LockIds: weight(k) = 1/(k+1)^s, precomputed once so a
    // draw is one uniform real plus a binary search.
    lock_cdf_.resize(static_cast<size_t>(cfg_.num_locks));
    double acc = 0;
    for (LockId k = 0; k < cfg_.num_locks; ++k) {
      acc += std::pow(static_cast<double>(k + 1), -cfg_.zipf_skew);
      lock_cdf_[static_cast<size_t>(k)] = acc;
    }
    for (double& c : lock_cdf_) c /= acc;
  }
}

Time Workload::sample_cs_duration() {
  if (cfg_.cs_duration <= 0) return 0;
  return cfg_.exponential_cs ? rng_.exponential_time(cfg_.cs_duration)
                             : cfg_.cs_duration;
}

LockId Workload::pick_lock() {
  if (cfg_.num_locks == 1) return kLock0;
  const double u = rng_.uniform_real(0.0, 1.0);
  const auto it = std::upper_bound(lock_cdf_.begin(), lock_cdf_.end(), u);
  const auto idx = std::min<size_t>(
      static_cast<size_t>(it - lock_cdf_.begin()),
      lock_cdf_.size() - 1);
  return static_cast<LockId>(idx);
}

void Workload::start() {
  for (size_t i = 0; i < sites_.size(); ++i) {
    const SiteId id = static_cast<SiteId>(i);
    if (cfg_.mode == Config::Mode::kClosed) {
      // Site-major, lock-minor stagger draws: with num_locks == 1 the draw
      // sequence (one per site) is exactly the single-lock workload's.
      for (LockId lock = 0; lock < cfg_.num_locks; ++lock) {
        const Time stagger = rng_.uniform_int(0, 100);
        sim_.schedule_after(stagger, [this, id, lock] {
          if (!draining_ && !sites_[static_cast<size_t>(id)].halted)
            demand(id, lock);
        });
      }
    } else {
      arrival(id);
    }
  }
}

void Workload::drain() { draining_ = true; }

void Workload::halt_site(SiteId id) {
  SiteState& st = sites_[static_cast<size_t>(id)];
  if (st.halted) return;
  st.halted = true;
  st.crashed = true;
  if (metrics_ != nullptr) metrics_->on_crash(id);
  // The in-flight demands and the backlogs will never complete; write them
  // off so liveness accounting stays exact.
  for (Slot& sl : st.slots) {
    if (sl.busy) {
      ++demands_aborted_;
      sl.busy = false;
    }
    demands_aborted_ += sl.backlog.clear();
  }
}

void Workload::arrival(SiteId id) {
  SiteState& st = sites_[static_cast<size_t>(id)];
  if (st.halted || draining_) return;
  double rate = cfg_.arrival_rate;
  if (!cfg_.site_weights.empty()) {
    DQME_CHECK(cfg_.site_weights.size() == sites_.size());
    rate *= cfg_.site_weights[static_cast<size_t>(id)];
    if (rate <= 0) return;  // weight 0: this site never demands the CS
  }
  const Time gap = rng_.exponential_time(static_cast<Time>(1.0 / rate));
  sim_.schedule_after(gap, [this, id] {
    SiteState& s = sites_[static_cast<size_t>(id)];
    if (s.halted || draining_) return;
    // The lock draw happens only with a real lock table (num_locks > 1),
    // so single-lock runs consume the exact historical rng_ sequence.
    demand(id, pick_lock());
    arrival(id);
  });
}

void Workload::demand(SiteId id, LockId lock) {
  ++demands_issued_;
  Slot& sl = slot(id, lock);
  // Queue behind the open request and behind every demand already queued:
  // an arrival at the instant the slot frees must not overtake them.
  if (sl.busy || !sl.backlog.empty())
    sl.backlog.push(sim_.now());
  else
    issue(id, lock, sim_.now());
}

void Workload::issue(SiteId id, LockId lock, Time demanded) {
  Slot& sl = slot(id, lock);
  DQME_CHECK(!sl.busy);
  sl.busy = true;
  sl.demanded = demanded;
  sl.requested = sim_.now();
  sites_[static_cast<size_t>(id)].site->request_cs(lock);
}

void Workload::entered(SiteId id, LockId lock) {
  SiteState& st = sites_[static_cast<size_t>(id)];
  Slot& sl = slot(id, lock);
  if (metrics_ != nullptr)
    metrics_->on_enter(id, lock, sim_.now(), sl.demanded, sl.requested,
                       st.site->last_entry_hops(lock));
  const Time hold = sample_cs_duration();
  sim_.schedule_after(hold, [this, id, lock] {
    SiteState& s = sites_[static_cast<size_t>(id)];
    if (s.crashed) return;  // crashed while in CS: the release never happens
    if (metrics_ != nullptr) metrics_->on_exit(id, lock, sim_.now());
    s.site->release_cs(lock);
    exited(id, lock);
  });
}

void Workload::exited(SiteId id, LockId lock) {
  Slot& sl = slot(id, lock);
  sl.busy = false;
  ++demands_completed_;
  ++sl.completed;
  next_demand(id, lock);
}

void Workload::aborted(SiteId id, LockId lock) {
  SiteState& st = sites_[static_cast<size_t>(id)];
  Slot& sl = slot(id, lock);
  DQME_CHECK(sl.busy);
  sl.busy = false;
  ++demands_aborted_;
  // A stalled site (no quorum available) gets no further demand, on any
  // lock — §6 liveness is a property of the site's peer set. Locks whose
  // requests are still viable finish (exited() tolerates halted); locks
  // that stalled too deliver their own abort. Backlogged demands will
  // never be issued: write them off now.
  st.halted = true;
  for (Slot& other : st.slots) demands_aborted_ += other.backlog.clear();
}

void Workload::next_demand(SiteId id, LockId lock) {
  SiteState& st = sites_[static_cast<size_t>(id)];
  if (st.halted) return;
  if (cfg_.mode == Config::Mode::kClosed) {
    if (draining_) return;
    if (cfg_.max_cs_per_site > 0 &&
        slot(id, lock).completed >= cfg_.max_cs_per_site)
      return;
    if (cfg_.think_time > 0) {
      sim_.schedule_after(cfg_.think_time, [this, id, lock] {
        SiteState& s = sites_[static_cast<size_t>(id)];
        if (!draining_ && !s.halted && !slot(id, lock).busy)
          demand(id, lock);
      });
    } else {
      // Re-request from a fresh event, not from inside release_cs().
      sim_.schedule_after(0, [this, id, lock] {
        SiteState& s = sites_[static_cast<size_t>(id)];
        if (!draining_ && !s.halted && !slot(id, lock).busy)
          demand(id, lock);
      });
    }
  } else if (!slot(id, lock).backlog.empty()) {
    // The oldest queued demand is issued from a fresh event and stays
    // queued until then, so a halt in between writes it off with the rest.
    sim_.schedule_after(0, [this, id, lock] {
      Slot& sl = slot(id, lock);
      if (!sites_[static_cast<size_t>(id)].halted && !sl.busy &&
          !sl.backlog.empty())
        issue(id, lock, sl.backlog.pop());
    });
  }
}

}  // namespace dqme::harness
