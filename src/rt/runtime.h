// Real-threads execution backend (DESIGN.md §9).
//
// rt::Runtime implements the net::Executor seam with actual concurrency:
// each site is pumped by one OS thread, each directed (src,dst) channel is
// one bounded lock-free SPSC ring (rt/spsc_ring.h), and "message delay" is
// whatever the scheduler and cache hierarchy actually do. The protocol
// state machines in src/mutex and src/core run unmodified — the simulator
// backend (net::Network) stays the oracle for their decisions
// (tests/rt_equivalence_test.cpp).
//
// Threading contract (mirrors the Executor seam notes):
//   * A site is only ever invoked from its own pump thread: deliveries,
//     timers, and the driver poll all run there. Protocol code therefore
//     needs no locks, exactly as under the single-threaded simulator.
//   * send(src, ...) may only be called from src's thread (protocols only
//     send from inside their own handlers, which satisfies this).
//   * Per-channel FIFO is preserved: one producer, one consumer, one ring.
//     When a ring fills, the producer spills to a producer-local overflow
//     queue and re-feeds it ahead of new traffic — senders never block, so
//     pump threads cannot deadlock on mutually full rings.
//   * Quiescence: in_flight() counts accepted-but-unresolved messages
//     (decremented only after the receiver's handler returns), so
//     "all drivers done && in_flight() == 0" is a stable stop condition.
//
// Fault injection matches the simulator's fail-silent model: after
// crash(id), messages from the dead site are dropped at send and messages
// toward it (or from it, already in flight) are dropped at delivery.
//
// Waiting: a pump with nothing due parks on its rt::Doorbell instead of
// spinning (see run()), and producers ring it when they publish work due
// before what it waits for.
//
// Observability: with RuntimeOptions::obs_feed, every delivery and crash is
// recorded into the receiving site's shard (span edges join the feed
// through record_span). Each step a pump runs — one delivery's handler, one
// timer, one poll — takes one stamp from a global sequentially-consistent
// counter at its first send or event (after its input message was popped);
// the events the step records share that stamp and keep their order.
// After the run quiesces, replay_into() merges the shards by (stamp, order)
// and replays them through an obs::InvariantChecker. The merged order runs
// each step atomically at its stamp, which is consistent with every site's
// local order and with causality: a step that pops a message stamps after
// the step that sent it did. Self-addressed deliveries are recorded at
// the send, inside the sending step, matching the simulator's immediate
// self-delivery; a wire message sent earlier in the same step can never be
// merged ahead of them.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.h"
#include "net/executor.h"
#include "net/message.h"
#include "obs/event.h"
#include "rt/doorbell.h"
#include "rt/spsc_ring.h"

namespace dqme::obs {
class InvariantChecker;
}

namespace dqme::rt {

struct RuntimeOptions {
  // Slots per directed channel (power of two). Overflow never blocks or
  // drops — it spills to the producer-local queue — so this only sizes the
  // lock-free fast path.
  size_t ring_capacity = 1024;
  // Record the sharded observability feed for replay_into().
  bool obs_feed = false;
  // Emulated wire latency: a message becomes deliverable only this many
  // microseconds after send (0 = as fast as the rings go). This is the
  // paper's T on real threads — with it, contended throughput is bound by
  // how many protocol pipelines the backend keeps in flight concurrently,
  // not by raw CPU, which is what a distributed deployment looks like.
  // Self-addressed (src == dst) messages are exempt, matching the
  // simulator's immediate self-delivery (several invariants — e.g. the
  // arbiter's self-release racing its next grant — assume it). The
  // consumer gates on the timestamp, so per-channel FIFO and the
  // quiescence protocol are unchanged; its pump parks until the head
  // message is due.
  uint64_t wire_delay_us = 0;
};

// Snapshot of the transport counters (same vocabulary as net::NetworkStats;
// "wire" counts bundles between distinct sites, matching the paper's
// piggyback accounting).
struct RuntimeStats {
  uint64_t wire_messages = 0;
  uint64_t control_messages = 0;
  uint64_t local_messages = 0;
  uint64_t delivered_messages = 0;
  uint64_t dropped_at_crashed = 0;
  uint64_t spilled_messages = 0;  // overflowed the ring into the spill queue
  uint64_t payloads_acquired = 0;
  // Pump parking (run()): parks taken, wall time spent parked, parked
  // pumps woken by a producer or by quiescence, and timed parks that woke
  // after the work they waited for was due.
  uint64_t parks = 0;
  uint64_t parked_us = 0;
  uint64_t wakeups_sent = 0;
  uint64_t late_wakes = 0;
};

class Runtime final : public net::Executor {
 public:
  explicit Runtime(int n, RuntimeOptions opts = {});
  ~Runtime() override;

  // --- net::Executor --------------------------------------------------
  int size() const override { return n_; }
  // Wall-clock microseconds since construction (observational only).
  Time now() const override {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  void attach(SiteId id, net::NetSite* site) override;
  void send(SiteId src, SiteId dst, const net::Message& m,
            LockId lock = kLock0) override;
  using net::Executor::send_bundle;
  void send_bundle(SiteId src, SiteId dst, const net::Message* msgs, size_t n,
                   LockId lock = kLock0) override;
  net::KvFields& attach_kv(net::Message& m) override;
  net::TokenPayload& attach_token(net::Message& m) override;
  net::KvFields read_kv(const net::Message& m) const override;
  net::TokenPayload take_token(const net::Message& m) override;
  // Best-effort wall-clock timer on `site`'s pump thread; `delay` is in
  // now()'s units (microseconds). Call only from that site's own context.
  uint64_t schedule_timeout(SiteId site, Time delay, sim::Callback fn) override;

  // --- fault injection (fail-silent, §6) ------------------------------
  void crash(SiteId id);
  bool alive(SiteId id) const {
    return alive_[static_cast<size_t>(id)].load(std::memory_order_acquire);
  }

  // --- pump primitives (owning thread only) ---------------------------
  // Pops and dispatches the head message of channel (src,dst). Returns
  // true when a message was DELIVERED to the attached receiver; crash
  // drops are resolved internally and the scan continues to the next slot.
  bool try_deliver_one(SiteId src, SiteId dst);
  // Round-robin drains up to `max` messages addressed to `dst` across all
  // source channels. Returns the number delivered.
  size_t drain(SiteId dst, size_t max);
  // Re-feeds `src`'s producer-local overflow queues into their rings.
  void flush_spills(SiteId src);
  // Fires every timer of `site` whose deadline has passed.
  void run_due_timers(SiteId site);

  // --- free-run pump mode ---------------------------------------------
  // Spawns one pump thread per site and blocks until quiescence. Each
  // iteration of a site's pump: flush spills, drain a delivery batch, fire
  // due timers, then call poll(site) — the driver's workload step, running
  // on the site's thread (so it may call request_cs/release_cs directly).
  // poll returns true once the site's workload is complete; threads exit
  // when every site is done and in_flight() == 0. A site stays in its pump
  // after reporting done — it still serves arbiter duties for others.
  //
  // Between passes that deliver nothing, a pump spins or parks until its
  // earliest known due instant or until rung (wait_for_work()). poll
  // therefore runs after every wake, not continuously: it must not wait on
  // state that other threads change without sending this site a message.
  void run(const std::function<bool(SiteId)>& poll);
  // Aborts run(): pump threads exit at their next iteration, parked ones
  // included.
  void request_stop();
  bool stop_requested() const {
    return stop_.load(std::memory_order_acquire);
  }

  // Accepted-but-unresolved messages (rings + spills + in-handler).
  uint64_t in_flight() const {
    return in_flight_.load(std::memory_order_acquire);
  }
  RuntimeStats stats() const;

  // --- sharded observability feed -------------------------------------
  bool obs_feed_enabled() const { return opts_.obs_feed; }
  // Span-edge entry point for rt::ObsTap (kind: issue, enter, exit or
  // abort). Must be called from `site`'s own thread.
  void record_span(SiteId site, obs::EventKind kind, LockId lock,
                   SpanId span);
  // Merges the per-site shards by global stamp and replays the run through
  // `chk` (observe / on_span_* / on_crash), then finish(). Call after the
  // pump threads have exited.
  void replay_into(obs::InvariantChecker& chk);

  // Discards every undelivered message (crash-run residue: traffic toward
  // a site that died stays parked in its rings). Single-threaded teardown
  // only. Returns the number discarded; in_flight() is 0 afterwards.
  uint64_t drain_residue();

 private:
  static constexpr uint32_t kNil = 0xffffffffu;

  struct WireSlot {
    net::Message m;
    LockId lock = kLock0;
  };

  // Per-channel state beyond the ring itself. `spill` is producer-local
  // (only src's thread touches it): the overflow queue for when the
  // lock-free ring is momentarily full. `staged`/`has_staged` are
  // consumer-local (only dst's thread): the popped-but-not-yet-due head
  // message while the emulated wire delay gates its delivery.
  struct Channel {
    std::unique_ptr<SpscRing<WireSlot>> ring;
    std::deque<WireSlot> spill;
    WireSlot staged;
    bool has_staged = false;
  };

  struct PayloadSlot {
    net::TokenPayload token;
    net::KvFields kv;
    uint32_t next_free = kNil;
  };

  struct Timer {
    Time deadline = 0;
    uint64_t seq = 0;
    sim::Callback fn;
  };
  // Heap order for the per-site timer heaps: earliest deadline at the
  // front (std::push_heap builds a max-heap, so the order is reversed).
  static bool timer_later(const Timer& a, const Timer& b) {
    if (a.deadline != b.deadline) return a.deadline > b.deadline;
    return a.seq > b.seq;
  }

  // One feed entry: the observability record plus its place in the merge.
  struct Stamped {
    obs::Event e;
    uint64_t stamp = 0;  // of the step that recorded it
    uint32_t order = 0;  // within that step
  };

  // Per-site pump state. Producers ring `bell`; everything else is touched
  // only by the site's own thread (stats() reads the counters relaxed).
  struct Pump {
    Doorbell bell;  // its own cache line
    // Producer side: destinations published to during the current pass,
    // each with the earliest instant its new work is due.
    std::vector<SiteId> touched;
    std::vector<int64_t> touched_due;  // per destination; kForever = none
    // Consumer side, from timed parks: lateness = actual wake - requested
    // wake, in ns. `margin` is its decayed maximum (the spin margin kept
    // before a deadline), `cost` its running mean (what one park adds). A
    // sample counts for at most twice the current estimate, so one wake
    // delayed by a preemption nudges them rather than resetting them, while
    // a slow host still doubles them sample by sample. Both halve per 2^26
    // ns (~67 ms) without samples, so a pump pushed to spinning by a slow
    // episode tries parking again once it is over.
    double margin = 0;
    double cost = 0;
    int64_t late_at = 0;
    void decay_to(int64_t t) {
      const double k = std::exp2(static_cast<double>(late_at - t) /
                                 static_cast<double>(int64_t{1} << 26));
      margin *= k;
      cost *= k;
      late_at = t;
    }
    void observe_late(int64_t late, int64_t t) {
      decay_to(t);
      const auto s = static_cast<double>(late);
      if (cost == 0) {
        margin = cost = s;
        return;
      }
      const double cap = 2 * std::max(margin, cost);
      margin = std::max(margin, std::min(s, cap));
      cost += (std::min(s, cap) - cost) / 8;
    }
    // Observability step in progress (obs_feed only). The stamp is drawn
    // at the step's first send or event: nothing the step did before that
    // could be seen by another site.
    bool step_stamped = false;
    uint64_t step_stamp = 0;
    uint32_t step_order = 0;
    std::atomic<uint64_t> parks{0};
    std::atomic<uint64_t> parked_ns{0};
    std::atomic<uint64_t> wakeups_sent{0};
    std::atomic<uint64_t> late_wakes{0};
  };

  Channel& chan(SiteId src, SiteId dst) {
    return channels_[static_cast<size_t>(src) * static_cast<size_t>(n_) +
                     static_cast<size_t>(dst)];
  }
  int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  void enqueue(SiteId src, SiteId dst, const WireSlot& slot);
  void touch(SiteId src, SiteId dst, const WireSlot& slot);
  // The pump loop of run() and its waiting policy.
  void pump(SiteId me, const std::function<bool(SiteId)>& poll);
  void ring_touched(SiteId me);
  void ring_all(SiteId by);
  bool quiescent() const {
    return done_sites_.load(std::memory_order_seq_cst) == n_ &&
           in_flight_.load(std::memory_order_seq_cst) == 0;
  }
  // Earliest instant (ns) anything of `me`'s can become due: 0 when work
  // is pending now, Doorbell::kForever when nothing is known.
  int64_t next_due(SiteId me);
  bool inbound_unscanned(SiteId me);
  void wait_for_work(SiteId me, int64_t& idle_since);
  void park(SiteId me, int64_t due, int64_t wake_at);
  void begin_step(SiteId site) {
    if (opts_.obs_feed) pumps_[static_cast<size_t>(site)].step_stamped = false;
  }
  void stamp_step(Pump& p) {
    if (p.step_stamped) return;
    p.step_stamped = true;
    p.step_stamp = next_stamp();
    p.step_order = 0;
  }
  // Resolves one popped slot on dst's thread: crash-drop or deliver.
  // Returns true when it was delivered.
  bool dispatch(SiteId dst, const WireSlot& slot);
  void release_payload(net::PayloadId id);
  void record_deliver(SiteId dst, const net::Message& m, LockId lock);
  void record(SiteId site, const obs::Event& e);
  uint64_t next_stamp() {
    // seq_cst: the stamp order must be consistent with real time across
    // threads — this is what makes the merged replay a faithful
    // linearization of what actually happened.
    return obs_stamp_.fetch_add(1, std::memory_order_seq_cst);
  }

  const int n_;
  const RuntimeOptions opts_;
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();

  std::vector<Channel> channels_;  // n*n, index src*n + dst
  std::vector<net::NetSite*> sites_;
  std::vector<Pump> pumps_;
  std::vector<std::atomic<bool>> alive_;
  std::vector<std::vector<Timer>> timers_;  // per-site heap (owner thread)
  std::vector<uint64_t> timer_seq_;

  mutable std::mutex payload_mu_;
  std::deque<PayloadSlot> payloads_;
  uint32_t payload_free_ = kNil;

  std::atomic<uint64_t> in_flight_{0};
  std::atomic<bool> stop_{false};
  std::atomic<int> done_sites_{0};

  // Relaxed transport counters (aggregated into RuntimeStats on demand).
  std::atomic<uint64_t> wire_messages_{0};
  std::atomic<uint64_t> control_messages_{0};
  std::atomic<uint64_t> local_messages_{0};
  std::atomic<uint64_t> delivered_messages_{0};
  std::atomic<uint64_t> dropped_at_crashed_{0};
  std::atomic<uint64_t> spilled_messages_{0};
  std::atomic<uint64_t> payloads_acquired_{0};

  // Observability feed: per-site shards written only by the owning thread;
  // crash events (which may come from any thread) go to the mutex-guarded
  // extra shard. Merged by (stamp, order) in replay_into().
  std::atomic<uint64_t> obs_stamp_{0};
  std::vector<std::vector<Stamped>> obs_shards_;
  std::mutex obs_extra_mu_;
  std::vector<Stamped> obs_extra_;
};

}  // namespace dqme::rt
