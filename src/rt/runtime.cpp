#include "rt/runtime.h"

#include <algorithm>
#include <utility>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "common/check.h"
#include "obs/invariants.h"

namespace dqme::rt {

Runtime::Runtime(int n, RuntimeOptions opts)
    : n_(static_cast<int>(site_count(n))),
      opts_(opts),
      sites_(static_cast<size_t>(n), nullptr),
      pumps_(static_cast<size_t>(n)),
      alive_(static_cast<size_t>(n)),
      timers_(static_cast<size_t>(n)),
      timer_seq_(static_cast<size_t>(n), 0),
      obs_shards_(static_cast<size_t>(n)) {
  channels_.resize(static_cast<size_t>(n) * static_cast<size_t>(n));
  for (auto& c : channels_)
    c.ring = std::make_unique<SpscRing<WireSlot>>(opts_.ring_capacity);
  for (auto& a : alive_) a.store(true, std::memory_order_relaxed);
  for (auto& p : pumps_)
    p.touched_due.assign(static_cast<size_t>(n), Doorbell::kForever);
}

Runtime::~Runtime() {
  // Leak-free teardown even after an aborted run: recycle any payload slot
  // still referenced by an undelivered message.
  drain_residue();
}

void Runtime::attach(SiteId id, net::NetSite* site) {
  DQME_CHECK(0 <= id && id < n_);
  sites_[static_cast<size_t>(id)] = site;
}

void Runtime::touch(SiteId src, SiteId dst, const WireSlot& slot) {
  if (src == dst) return;  // a pump never parks on its own sends
  Pump& p = pumps_[static_cast<size_t>(src)];
  int64_t& due = p.touched_due[static_cast<size_t>(dst)];
  if (due == Doorbell::kForever) p.touched.push_back(dst);
  due = std::min(due, (slot.m.sent_at + static_cast<Time>(opts_.wire_delay_us)) *
                          1000);
}

void Runtime::enqueue(SiteId src, SiteId dst, const WireSlot& slot) {
  in_flight_.fetch_add(1, std::memory_order_seq_cst);
  Channel& c = chan(src, dst);
  // The destination is rung at the end of this pass, whichever path the
  // message takes (a spilled one is due no earlier than the ring's tail).
  touch(src, dst, slot);
  // FIFO: anything already spilled goes first; a new message may only take
  // the ring fast path when the spill queue is empty.
  if (!c.spill.empty()) {
    while (!c.spill.empty() && c.ring->try_push(c.spill.front()))
      c.spill.pop_front();
    if (!c.spill.empty()) {
      c.spill.push_back(slot);
      spilled_messages_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  if (!c.ring->try_push(slot)) {
    c.spill.push_back(slot);
    spilled_messages_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Runtime::send(SiteId src, SiteId dst, const net::Message& m,
                   LockId lock) {
  send_bundle(src, dst, &m, 1, lock);
}

void Runtime::send_bundle(SiteId src, SiteId dst, const net::Message* msgs,
                          size_t n, LockId lock) {
  DQME_CHECK(0 <= src && src < n_ && 0 <= dst && dst < n_);
  if (n == 0) return;
  if (!alive(src)) {
    // Fail-silent sender: nothing leaves a crashed site. Release any
    // payload the caller had already attached.
    for (size_t i = 0; i < n; ++i) {
      if (msgs[i].payload != net::kNoPayload) release_payload(msgs[i].payload);
      dropped_at_crashed_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  if (opts_.obs_feed) stamp_step(pumps_[static_cast<size_t>(src)]);
  const Time at = now();
  WireSlot slot;
  slot.lock = lock;
  for (size_t i = 0; i < n; ++i) {
    slot.m = msgs[i];
    slot.m.src = src;
    slot.m.dst = dst;
    slot.m.sent_at = at;
    // Self-addressed messages follow the simulator's semantics: delivered
    // "immediately" (they bypass the wire delay, and their observability
    // event is recorded here, inside the sending step — the moment sim-side
    // invariants expect the delivery to have happened). The actual handler
    // still runs from the pump loop, never re-entrantly.
    if (src == dst && opts_.obs_feed) record_deliver(dst, slot.m, lock);
    enqueue(src, dst, slot);
  }
  control_messages_.fetch_add(n, std::memory_order_relaxed);
  if (src == dst) {
    local_messages_.fetch_add(n, std::memory_order_relaxed);
  } else {
    // Piggyback accounting parity with net::Network: one bundle between
    // distinct sites = one wire message (§5 cost model).
    wire_messages_.fetch_add(1, std::memory_order_relaxed);
  }
}

net::KvFields& Runtime::attach_kv(net::Message& m) {
  std::lock_guard<std::mutex> g(payload_mu_);
  uint32_t id;
  if (payload_free_ != kNil) {
    id = payload_free_;
    payload_free_ = payloads_[id].next_free;
  } else {
    id = static_cast<uint32_t>(payloads_.size());
    payloads_.emplace_back();
  }
  payloads_[id].next_free = kNil;
  payloads_acquired_.fetch_add(1, std::memory_order_relaxed);
  m.payload = id;
  return payloads_[id].kv;
}

net::TokenPayload& Runtime::attach_token(net::Message& m) {
  attach_kv(m);  // same slot type; binds m.payload
  std::lock_guard<std::mutex> g(payload_mu_);
  return payloads_[m.payload].token;
}

net::KvFields Runtime::read_kv(const net::Message& m) const {
  DQME_CHECK(m.payload != net::kNoPayload);
  std::lock_guard<std::mutex> g(payload_mu_);
  return payloads_[m.payload].kv;
}

net::TokenPayload Runtime::take_token(const net::Message& m) {
  DQME_CHECK(m.payload != net::kNoPayload);
  std::lock_guard<std::mutex> g(payload_mu_);
  return std::move(payloads_[m.payload].token);
}

void Runtime::release_payload(net::PayloadId id) {
  std::lock_guard<std::mutex> g(payload_mu_);
  PayloadSlot& p = payloads_[id];
  p.token.ln.clear();
  p.token.queue.clear();
  p.kv = net::KvFields{};
  p.next_free = payload_free_;
  payload_free_ = id;
}

uint64_t Runtime::schedule_timeout(SiteId site, Time delay, sim::Callback fn) {
  DQME_CHECK(0 <= site && site < n_ && delay >= 0);
  auto& heap = timers_[static_cast<size_t>(site)];
  Timer t;
  t.deadline = now() + delay;
  t.seq = ++timer_seq_[static_cast<size_t>(site)];
  t.fn = std::move(fn);
  const uint64_t id = t.seq;
  heap.push_back(std::move(t));
  std::push_heap(heap.begin(), heap.end(), timer_later);
  return id;
}

void Runtime::run_due_timers(SiteId site) {
  auto& heap = timers_[static_cast<size_t>(site)];
  if (heap.empty()) return;
  const Time t = now();
  while (!heap.empty() && heap.front().deadline <= t) {
    std::pop_heap(heap.begin(), heap.end(), timer_later);
    sim::Callback fn = std::move(heap.back().fn);
    heap.pop_back();
    begin_step(site);
    fn();
  }
}

void Runtime::crash(SiteId id) {
  DQME_CHECK(0 <= id && id < n_);
  DQME_CHECK_MSG(alive(id), "site " << id << " already crashed");
  alive_[static_cast<size_t>(id)].store(false, std::memory_order_release);
  if (opts_.obs_feed) {
    Stamped st;
    st.stamp = next_stamp();  // a step of its own
    st.e = obs::Event::crash(id, now());
    std::lock_guard<std::mutex> g(obs_extra_mu_);
    obs_extra_.push_back(st);
  }
}

void Runtime::record_span(SiteId site, obs::EventKind kind, LockId lock,
                          SpanId span) {
  if (!opts_.obs_feed) return;
  record(site, obs::Event::edge(kind, site, lock, span, 0));
}

void Runtime::record(SiteId site, const obs::Event& e) {
  Pump& p = pumps_[static_cast<size_t>(site)];
  stamp_step(p);
  Stamped st{e, p.step_stamp, p.step_order++};
  st.e.at = now();
  obs_shards_[static_cast<size_t>(site)].push_back(st);
}

void Runtime::record_deliver(SiteId dst, const net::Message& m, LockId lock) {
  record(dst, obs::Event::delivery(m, lock, 0));
}

bool Runtime::dispatch(SiteId dst, const WireSlot& slot) {
  const net::Message& m = slot.m;
  const bool drop = !alive(dst) || !alive(m.src);
  if (drop) {
    if (m.payload != net::kNoPayload) release_payload(m.payload);
    dropped_at_crashed_.fetch_add(1, std::memory_order_relaxed);
    in_flight_.fetch_sub(1, std::memory_order_seq_cst);
    return false;
  }
  begin_step(dst);
  // Self deliveries were recorded at send (sim's immediate-delivery
  // semantics); only wire deliveries are recorded here.
  if (opts_.obs_feed && m.src != dst) record_deliver(dst, m, slot.lock);
  net::NetSite* site = sites_[static_cast<size_t>(dst)];
  DQME_CHECK_MSG(site != nullptr, "delivery to unattached site " << dst);
  site->on_message(m, slot.lock);
  if (m.payload != net::kNoPayload) release_payload(m.payload);
  delivered_messages_.fetch_add(1, std::memory_order_relaxed);
  // Only after the handler returns: in_flight() == 0 means the receiver is
  // done reacting (its own sends were counted before this decrement).
  // seq_cst pairs with the done_sites_ increment: whichever of the two
  // comes last, its thread sees quiescence (see pump()).
  in_flight_.fetch_sub(1, std::memory_order_seq_cst);
  return true;
}

bool Runtime::try_deliver_one(SiteId src, SiteId dst) {
  Channel& c = chan(src, dst);
  // Self-channels are exempt from the emulated wire delay, matching the
  // simulator's immediate self-delivery.
  const bool delayed = opts_.wire_delay_us > 0 && src != dst;
  const Time cutoff =
      delayed ? now() - static_cast<Time>(opts_.wire_delay_us) : 0;
  for (;;) {
    if (!c.has_staged) {
      if (!c.ring->try_pop(c.staged)) return false;
      c.has_staged = true;
    }
    // Emulated wire delay: the head message stays staged until its
    // timestamp ages past the delay. Per-producer timestamps are
    // monotonic, so gating only the head preserves channel FIFO.
    if (delayed && c.staged.m.sent_at > cutoff) return false;
    c.has_staged = false;
    if (dispatch(dst, c.staged)) return true;
    // Crash drop: resolved, keep scanning this channel.
  }
}

size_t Runtime::drain(SiteId dst, size_t max) {
  size_t delivered = 0;
  const bool delayed = opts_.wire_delay_us > 0;
  const Time cutoff =
      delayed ? now() - static_cast<Time>(opts_.wire_delay_us) : 0;
  for (SiteId src = 0; src < n_ && delivered < max; ++src) {
    Channel& c = chan(src, dst);
    // Self-channel exemption, as in try_deliver_one.
    const bool gate = delayed && src != dst;
    while (delivered < max) {
      if (!c.has_staged) {
        if (!c.ring->try_pop(c.staged)) break;
        c.has_staged = true;
      }
      if (gate && c.staged.m.sent_at > cutoff) break;
      c.has_staged = false;
      if (dispatch(dst, c.staged)) ++delivered;
    }
  }
  return delivered;
}

void Runtime::flush_spills(SiteId src) {
  for (SiteId dst = 0; dst < n_; ++dst) {
    Channel& c = chan(src, dst);
    while (!c.spill.empty() && c.ring->try_push(c.spill.front())) {
      touch(src, dst, c.spill.front());
      c.spill.pop_front();
    }
  }
}

void Runtime::run(const std::function<bool(SiteId)>& poll) {
  stop_.store(false, std::memory_order_release);
  done_sites_.store(0, std::memory_order_seq_cst);
  std::vector<std::thread> pumps;
  pumps.reserve(static_cast<size_t>(n_));
  for (SiteId me = 0; me < n_; ++me)
    pumps.emplace_back([this, me, &poll] { pump(me, poll); });
  for (auto& t : pumps) t.join();
}

void Runtime::request_stop() {
  stop_.store(true, std::memory_order_seq_cst);
  for (Pump& p : pumps_) p.bell.ring();
}

void Runtime::pump(SiteId me, const std::function<bool(SiteId)>& poll) {
#if defined(__linux__)
  // Timed parks should end when asked to: the default 50 us timer slack is
  // half of a typical emulated T.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  // Batch size: bounds one pass, so under a flood the pump still re-feeds
  // its spills, fires timers, polls and rings the sites it sent to.
  constexpr size_t kBatch = 256;
  bool reported_done = false;
  int64_t idle_since = -1;  // start of the current stretch with nothing known
  while (!stop_requested()) {
    flush_spills(me);
    const size_t delivered = drain(me, kBatch);
    run_due_timers(me);
    begin_step(me);
    const bool done = poll(me);
    if (done && !reported_done) {
      reported_done = true;
      // seq_cst pairs with dispatch()'s in_flight_ decrement.
      done_sites_.fetch_add(1, std::memory_order_seq_cst);
    }
    ring_touched(me);
    if (quiescent()) {
      ring_all(me);
      break;
    }
    if (delivered > 0)
      idle_since = -1;
    else
      wait_for_work(me, idle_since);
  }
}

void Runtime::ring_touched(SiteId me) {
  Pump& p = pumps_[static_cast<size_t>(me)];
  for (SiteId dst : p.touched) {
    int64_t& due = p.touched_due[static_cast<size_t>(dst)];
    chan(me, dst).ring->republish();
    if (pumps_[static_cast<size_t>(dst)].bell.ring_before(due))
      p.wakeups_sent.fetch_add(1, std::memory_order_relaxed);
    due = Doorbell::kForever;
  }
  p.touched.clear();
}

void Runtime::ring_all(SiteId by) {
  uint64_t woken = 0;
  for (Pump& p : pumps_) woken += p.bell.ring() ? 1 : 0;
  pumps_[static_cast<size_t>(by)].wakeups_sent.fetch_add(
      woken, std::memory_order_relaxed);
}

int64_t Runtime::next_due(SiteId me) {
  const Time delay = static_cast<Time>(opts_.wire_delay_us);
  int64_t due = Doorbell::kForever;
  for (SiteId src = 0; src < n_; ++src) {
    const Channel& c = chan(src, me);
    if (c.has_staged)
      due = std::min(due, (c.staged.m.sent_at + (src != me ? delay : 0)) * 1000);
    else if (!c.ring->empty())
      return 0;
  }
  for (SiteId dst = 0; dst < n_; ++dst)
    if (!chan(me, dst).spill.empty()) return 0;
  const auto& heap = timers_[static_cast<size_t>(me)];
  if (!heap.empty()) due = std::min(due, heap.front().deadline * 1000);
  return due;
}

bool Runtime::inbound_unscanned(SiteId me) {
  for (SiteId src = 0; src < n_; ++src) {
    const Channel& c = chan(src, me);
    if (!c.has_staged && !c.ring->empty()) return true;
  }
  return false;
}

// The waiting policy. Every threshold comes from the pump's own timed
// parks (park() measures them): `margin` is the decayed maximum of how late
// a park woke, `cost` the mean. With something due at a known instant the
// pump parks until margin before it — only if that leaves more than one
// park's cost of sleep — and spins the rest. With nothing known it spins
// for one park's cost first (gaps shorter than that are cheaper to spin
// through), then parks until rung; not while recent wakes ran so late that
// a rung park could overrun half of T. A slow host thus pushes the pump
// back to spinning rather than into late deliveries. With T = 0 (raw ring
// speed) it never parks: any wake latency would add to a delivery.
void Runtime::wait_for_work(SiteId me, int64_t& idle_since) {
  Pump& p = pumps_[static_cast<size_t>(me)];
  const auto t_ns = static_cast<int64_t>(opts_.wire_delay_us) * 1000;
  const int64_t t = now_ns();
  const int64_t due = t_ns > 0 ? next_due(me) : 0;
  if (due > t) {
    p.decay_to(t);
    const auto margin = static_cast<int64_t>(p.margin);
    const auto cost = static_cast<int64_t>(p.cost);
    if (due == Doorbell::kForever) {
      if (idle_since < 0) idle_since = t;
      if (2 * margin < t_ns && t - idle_since >= cost)
        return park(me, due, Doorbell::kForever);
    } else {
      idle_since = -1;
      const int64_t wake_at = due - margin;
      if (wake_at - t > cost) return park(me, due, wake_at);
    }
  } else {
    idle_since = -1;
  }
  std::this_thread::yield();
}

void Runtime::park(SiteId me, int64_t due, int64_t wake_at) {
  Pump& p = pumps_[static_cast<size_t>(me)];
  p.bell.arm(due);
  // Re-check after arming: anything published before a producer saw the
  // bell unarmed is visible now (doorbell.h), and so are stop and
  // quiescence, whose wakers ring after setting them.
  if (inbound_unscanned(me) || stop_requested() || quiescent()) {
    p.bell.disarm();
    return;
  }
  p.parks.fetch_add(1, std::memory_order_relaxed);
  const int64_t t0 = now_ns();
  p.bell.wait(wake_at == Doorbell::kForever
                  ? std::chrono::steady_clock::time_point::max()
                  : start_ + std::chrono::nanoseconds(wake_at));
  p.bell.disarm();
  const int64_t t1 = now_ns();
  p.parked_ns.fetch_add(static_cast<uint64_t>(t1 - t0),
                        std::memory_order_relaxed);
  if (wake_at == Doorbell::kForever || t1 < wake_at) return;  // rung early
  p.observe_late(t1 - wake_at, t1);
  if (t1 > due) p.late_wakes.fetch_add(1, std::memory_order_relaxed);
}

uint64_t Runtime::drain_residue() {
  uint64_t discarded = 0;
  WireSlot slot;
  for (auto& c : channels_) {
    if (c.has_staged) {
      c.has_staged = false;
      if (c.staged.m.payload != net::kNoPayload)
        release_payload(c.staged.m.payload);
      ++discarded;
    }
    while (c.ring->try_pop(slot)) {
      if (slot.m.payload != net::kNoPayload) release_payload(slot.m.payload);
      ++discarded;
    }
    for (const WireSlot& s : c.spill) {
      if (s.m.payload != net::kNoPayload) release_payload(s.m.payload);
      ++discarded;
    }
    c.spill.clear();
  }
  if (discarded > 0) {
    dropped_at_crashed_.fetch_add(discarded, std::memory_order_relaxed);
    in_flight_.fetch_sub(discarded, std::memory_order_acq_rel);
  }
  return discarded;
}

RuntimeStats Runtime::stats() const {
  RuntimeStats s;
  s.wire_messages = wire_messages_.load(std::memory_order_relaxed);
  s.control_messages = control_messages_.load(std::memory_order_relaxed);
  s.local_messages = local_messages_.load(std::memory_order_relaxed);
  s.delivered_messages = delivered_messages_.load(std::memory_order_relaxed);
  s.dropped_at_crashed =
      dropped_at_crashed_.load(std::memory_order_relaxed);
  s.spilled_messages = spilled_messages_.load(std::memory_order_relaxed);
  s.payloads_acquired = payloads_acquired_.load(std::memory_order_relaxed);
  uint64_t parked_ns = 0;
  for (const Pump& p : pumps_) {
    s.parks += p.parks.load(std::memory_order_relaxed);
    parked_ns += p.parked_ns.load(std::memory_order_relaxed);
    s.wakeups_sent += p.wakeups_sent.load(std::memory_order_relaxed);
    s.late_wakes += p.late_wakes.load(std::memory_order_relaxed);
  }
  s.parked_us = parked_ns / 1000;
  return s;
}

void Runtime::replay_into(obs::InvariantChecker& chk) {
  // Merge the shards by (step stamp, order within the step). Stamps are
  // unique to a step (one atomic), so the merged sequence is a total order;
  // per-site subsequences keep their local order because each shard was
  // appended in that order.
  std::vector<const Stamped*> merged;
  size_t total = obs_extra_.size();
  for (const auto& shard : obs_shards_) total += shard.size();
  merged.reserve(total);
  for (const auto& shard : obs_shards_)
    for (const Stamped& st : shard) merged.push_back(&st);
  for (const Stamped& st : obs_extra_) merged.push_back(&st);
  std::sort(merged.begin(), merged.end(),
            [](const Stamped* a, const Stamped* b) {
              return a->stamp != b->stamp ? a->stamp < b->stamp
                                          : a->order < b->order;
            });
  Time last = 0;
  for (const Stamped* st : merged) {
    const obs::Event& e = st->e;
    // Guard against wall-clock reads racing the stamp acquisition across
    // threads: the checker only needs a non-decreasing clock.
    const Time at = std::max(e.at, last);
    last = at;
    switch (e.kind) {
      case obs::EventKind::kIssue:
        chk.on_span_issue(e.site, e.lock, e.span, at);
        break;
      case obs::EventKind::kEnter:
        chk.on_span_enter(e.site, e.lock, e.span, at);
        break;
      case obs::EventKind::kExit:
        chk.on_span_exit(e.site, e.lock, e.span, at);
        break;
      case obs::EventKind::kAbort:
        chk.on_span_abort(e.site, e.lock, e.span, at);
        break;
      case obs::EventKind::kDeliver:
        chk.observe(e.msg, e.lock, at);
        break;
      case obs::EventKind::kCrash:
        chk.on_crash(e.site);
        break;
      default:
        DQME_CHECK_MSG(false, "unknown obs event kind");
    }
  }
  chk.finish(last);
}

}  // namespace dqme::rt
