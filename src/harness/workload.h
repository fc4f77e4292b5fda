// Drives protocol sites with synthetic CS demand (paper §5's two regimes).
//
//   * Closed loop ("heavy load"): every site wants the CS again as soon as
//     it leaves it (plus optional think time). With think_time = 0 this is
//     §5.2's saturation: "a site that is waiting ... has enough time to
//     obtain all reply messages except the reply from the site in the CS".
//   * Open loop ("light load" and the λ sweeps): per-site Poisson arrivals
//     with the given rate; demands queue locally because "a site executes
//     its CS requests sequentially one by one" (§2).
//
// Sharded lock table: with num_locks > 1 every demand targets one lock.
// Closed loop drives every (site, lock) pair as its own saturation loop;
// open loop keeps one Poisson arrival process per site and samples the
// target lock per demand from a Zipf distribution over LockIds (skew 0 =
// uniform, lock 0 always the most popular). Demands queue per (site, lock)
// — a site executes each lock's requests sequentially, but distinct locks
// proceed concurrently. A (site, lock) slot is 64 bytes and owns no heap
// block until a demand first queues behind its open request, so a 4096-lock
// table over 25 sites costs ~6.5 MB of workload state.
//
// The workload is also the bookkeeper: it stamps demand/request/enter/exit
// times into Metrics and knows how many demands are still in flight, which
// is what the deadlock/starvation checks (Theorems 2/3) assert on.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "harness/metrics.h"
#include "mutex/mutex_site.h"

namespace dqme::harness {

// FIFO of the arrival times of the demands queued on one (site, lock)
// slot (open loop). A ring over a power-of-two vector: it owns no heap
// block until the first push, keeps its capacity across drains, and
// doubles only when full. A backlog that never empties (an overloaded open
// loop) therefore reuses consumed slots, and capacity stays within twice
// the peak live backlog.
class Backlog {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  size_t capacity() const { return ring_.size(); }

  void push(Time demanded) {
    if (size_ == ring_.size()) grow();
    ring_[(head_ + size_) & (ring_.size() - 1)] = demanded;
    ++size_;
  }
  // Removes and returns the oldest queued demand.
  Time pop() {
    DQME_CHECK(size_ > 0);
    const Time demanded = ring_[head_];
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
    return demanded;
  }
  // Drops every queued demand; returns how many there were.
  size_t clear() {
    const size_t n = size_;
    head_ = 0;
    size_ = 0;
    return n;
  }

 private:
  void grow();

  std::vector<Time> ring_;  // size 0 or a power of two
  uint32_t head_ = 0;       // index of the oldest demand
  uint32_t size_ = 0;
};

class Workload {
 public:
  struct Config {
    enum class Mode { kClosed, kOpen };
    Mode mode = Mode::kClosed;
    Time cs_duration = 10;       // E
    bool exponential_cs = false; // E ~ Exp(cs_duration) instead of constant
    Time think_time = 0;         // closed loop: pause between CSs
    double arrival_rate = 1e-4;  // open loop: demands per tick per site
    // Optional per-site demand multipliers (open loop). Empty = uniform.
    // E.g. {8,1,1,...} makes site 0 a hotspot with 8x the demand.
    std::vector<double> site_weights;
    uint64_t seed = 7;
    // Closed loop: cap on CS executions per (site, lock) slot (0 =
    // unlimited). Used by tests that want bounded runs.
    uint64_t max_cs_per_site = 0;
    // Lock-table size; must match the sites' MutexSite::num_locks().
    LockId num_locks = 1;
    // Open loop, num_locks > 1: lock-popularity skew. Demand for lock k is
    // proportional to 1/(k+1)^zipf_skew; 0 = uniform.
    double zipf_skew = 0.0;
  };

  Workload(sim::Simulator& sim, std::vector<mutex::MutexSite*> sites,
           Config config, Metrics* metrics);

  // Begins issuing demand. Closed-loop start times are staggered uniformly
  // over one mean message delay to avoid lock-step artifacts.
  void start();

  // Stops creating demand; already-issued demands run to completion.
  void drain();

  // Stops driving a site (crash experiments). Its in-flight demands and
  // every demand still queued behind them are written off.
  void halt_site(SiteId id);

  // Demands created so far; an open-loop arrival counts when it arrives,
  // whether it is issued at once or queued behind an open request.
  uint64_t demands_issued() const { return demands_issued_; }
  uint64_t demands_completed() const { return demands_completed_; }
  uint64_t demands_aborted() const { return demands_aborted_; }
  // Demands issued but neither completed nor written off.
  uint64_t demands_outstanding() const {
    return demands_issued_ - demands_completed_ - demands_aborted_;
  }
  // Open loop: the demands queued behind (site, lock)'s open request.
  const Backlog& backlog(SiteId id, LockId lock) const {
    return sites_[static_cast<size_t>(id)]
        .slots[static_cast<size_t>(lock)]
        .backlog;
  }

 private:
  // One (site, lock) demand slot: at most one request open at a time.
  struct Slot {
    bool busy = false;           // a demand is requesting or in CS
    Time demanded = 0;           // current demand's arrival time
    Time requested = 0;
    Backlog backlog;             // open loop: queued demand arrival times
    uint64_t completed = 0;
  };
  struct SiteState {
    mutex::MutexSite* site = nullptr;
    bool halted = false;   // no further demand (crash or stall)
    bool crashed = false;  // halt_site: a held CS is never released
    std::vector<Slot> slots;  // indexed by LockId
  };

  Slot& slot(SiteId id, LockId lock) {
    return sites_[static_cast<size_t>(id)].slots[static_cast<size_t>(lock)];
  }

  void arrival(SiteId id);           // open loop Poisson process
  LockId pick_lock();                // Zipf draw (num_locks > 1 only)
  // A new demand arrives: counted, then issued, or queued while the slot
  // is busy or holds older demands.
  void demand(SiteId id, LockId lock);
  // Hands a demand that arrived at `demanded` to the site.
  void issue(SiteId id, LockId lock, Time demanded);
  void entered(SiteId id, LockId lock);
  void exited(SiteId id, LockId lock);
  void aborted(SiteId id, LockId lock);
  void next_demand(SiteId id, LockId lock);  // after a completion
  Time sample_cs_duration();

  sim::Simulator& sim_;
  Config cfg_;
  Rng rng_;
  Metrics* metrics_;
  std::vector<SiteState> sites_;
  std::vector<double> lock_cdf_;  // Zipf CDF over LockIds (num_locks > 1)
  bool draining_ = false;
  uint64_t demands_issued_ = 0;
  uint64_t demands_completed_ = 0;
  uint64_t demands_aborted_ = 0;
};

}  // namespace dqme::harness
