// Simulated fully-connected message-passing network (paper §2).
//
// Guarantees, matching the paper's system model:
//   * reliable delivery between live sites,
//   * per-(src,dst) FIFO: messages are delivered in the order sent,
//   * unpredictable but bounded delay, drawn from a DelayModel.
//
// Accounting, matching the paper's cost model (§5): a *bundle* of control
// messages sent together (piggybacked) occupies one wire message — "a
// control message piggybacked with another message is counted as one
// message". Messages a site addresses to itself are delivered immediately
// and are not counted: the paper's complexity figures (e.g. 3(K-1)) exclude
// the requester's own quorum slot.
//
// Hot-path allocation: in-flight bundles live in a pooled slab of Flight
// slots (index-linked free list). A flight stores its first two messages
// inline — the dominant shapes are a single message and a reply+transfer
// piggyback — and spills only larger bundles to a pooled vector; the
// delivery callback captures only (this, slot index), which fits
// sim::Callback's inline storage — so steady-state send/deliver performs
// no heap allocation and no per-message indirection.
//
// Multi-lock addressing: the 80-byte Message struct has no room for a
// LockId field (and single-lock runs must not pay for one), so the lock a
// message belongs to rides in the *flight*, not the message: each flight
// carries a lock tag per message (inline array + spill vector, parallel to
// the message storage), stamped by send()/send_bundle() and handed to the
// receiver as a separate on_message parameter. A protocol bundle is always
// single-lock; only window piggybacking (below) mixes locks in one flight.
//
// Lock piggybacking: with set_lock_piggyback(window >= 0), a send whose
// channel already has an undelivered flight staged within the last `window`
// ticks is appended to that open flight instead of occupying a new wire
// message — the sharded-lock-service batching that makes per-lock request
// fan-outs to a shared quorum cheap. Appending never changes the open
// flight's delivery instant, so with window = 0 (same-instant coalescing
// only) delivery times and per-message order are exactly what separate
// flights would have produced — the property lock_table_test leans on.
//
// Side payloads: Message is a flat 80-byte struct; the rare big fields
// (Suzuki-Kasami token state, replica kv) live in a per-network payload
// slab addressed by Message::payload. Senders bind one with attach_kv /
// attach_token; receivers read it with read_kv / take_token from inside
// on_message. The network recycles the slot as soon as the handler returns
// (or the message is dropped by crash semantics), so payload handles in
// retained Message copies are dead — by design, nothing reads them later.
//
// Fault injection (§6): crash(site) makes a site fail silently — everything
// addressed to it (or sent by it) from that instant on is dropped.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/delay_model.h"
#include "net/executor.h"
#include "net/message.h"
#include "sim/simulator.h"

namespace dqme::net {

// Causal-predecessor handle threaded through the network (src/obs/critpath).
// A CauseId names the observability event that *enabled* a send — the index
// an attached obs::SpanRecorder assigned to the delivery / CS-exit / issue
// edge it recorded just before the send happened. The network itself never
// interprets the value: it copies the current cause into every staged
// message (parallel to the lock tags) and surfaces the stamped cause again
// at delivery time, so a recorder can link each wire edge to the edge that
// produced it without growing the 80-byte Message. kNoCause (the resting
// value with no recorder attached) means "root event / cause unknown".
using CauseId = int32_t;
inline constexpr CauseId kNoCause = -1;

struct NetworkStats {
  uint64_t wire_messages = 0;     // bundles put on the wire (paper's count)
  uint64_t control_messages = 0;  // control messages incl. piggybacked ones
  std::array<uint64_t, kNumMsgTypes> by_type{};
  uint64_t dropped_at_crashed = 0;  // deliveries suppressed by a crash
  uint64_t local_deliveries = 0;    // src == dst short-circuits (uncounted)
  uint64_t delivered_messages = 0;  // handed to a receiver (local + wire)
  uint64_t flights_acquired = 0;    // flight-slot checkouts (pool traffic)
  uint64_t payloads_acquired = 0;   // side-payload checkouts (token/kv)
  uint64_t piggybacked_messages = 0;  // appended to an open flight (no wire)

  uint64_t count(MsgType t) const {
    return by_type[static_cast<size_t>(t)];
  }

  // Messages staged but not yet resolved to a delivery or a crash drop.
  // Conservation identity (obs::InvariantChecker): every staged message is
  // eventually delivered or dropped, so this is 0 once a run quiesces.
  uint64_t in_flight() const {
    return control_messages + local_deliveries - delivered_messages -
           dropped_at_crashed;
  }
};

class Network final : public Executor {
 public:
  Network(sim::Simulator& sim, int n, std::unique_ptr<DelayModel> delay,
          uint64_t seed);

  int size() const override { return static_cast<int>(sites_.size()); }
  Time now() const override { return sim_.now(); }
  sim::Simulator& simulator() { return sim_; }
  const sim::Simulator& simulator() const { return sim_; }
  Time mean_delay() const { return delay_->mean(); }

  // Registers the receiver for site `id`. Must happen before any delivery
  // to `id`; re-attaching replaces the receiver (used by wrappers).
  void attach(SiteId id, NetSite* site) override;

  // Sends one control message as one wire message, tagged with the lock it
  // arbitrates.
  void send(SiteId src, SiteId dst, const Message& m,
            LockId lock = kLock0) override;

  // Sends several control messages piggybacked as one wire message. They
  // are delivered back-to-back, in order, at the same instant, and all
  // share one lock tag (protocol bundles are single-lock). The pointer
  // form is the hot path: protocol code keeps ≤2-message bundles in a stack
  // buffer and never touches the heap; the vector form (inherited from
  // Executor) is convenience for tests and cold paths.
  using Executor::send_bundle;
  void send_bundle(SiteId src, SiteId dst, const Message* msgs, size_t n,
                   LockId lock = kLock0) override;

  // Executor timeout seam: exact virtual time via the simulator's event
  // heap; the site argument is irrelevant under one global event loop.
  uint64_t schedule_timeout(SiteId /*site*/, Time delay,
                            sim::Callback fn) override {
    return sim_.schedule_after(delay, std::move(fn));
  }

  // --- Lock piggybacking (sharded lock service) ------------------------
  // window < 0 (default): disabled. window >= 0: a send may append to the
  // channel's most recent still-undelivered flight when that flight was
  // staged at most `window` ticks ago. The appended messages keep the open
  // flight's delivery instant (which respects the FIFO floor by
  // construction), count as control messages but not as a new wire
  // message, and are tallied in stats().piggybacked_messages. window = 0
  // coalesces only sends from the same simulation instant — exactly
  // timing- and order-preserving vs. separate flights. Not available in
  // controlled (explorer) mode, where one flight = one schedule action.
  void set_lock_piggyback(Time window);
  Time lock_piggyback() const { return pb_window_; }

  // --- Side payloads -------------------------------------------------
  // attach_* acquires a pool slot, binds it to `m`, and returns the field
  // to fill. The reference is into the pool slab: write it before the next
  // attach_* call (which may grow the slab). read_kv copies the fields out
  // (handlers send messages, which can also grow the slab); take_token
  // moves the token state out of its slot — ownership transfers to the
  // caller, matching "exactly one site holds the token".
  KvFields& attach_kv(Message& m) override;
  TokenPayload& attach_token(Message& m) override;
  KvFields read_kv(const Message& m) const override;
  TokenPayload take_token(const Message& m) override;
  size_t payload_pool_size() const { return payloads_.size(); }

  // --- Controlled delivery (src/verify's schedule explorer) -----------
  // When enabled, wire flights between live sites are parked in
  // per-channel FIFO queues instead of being scheduled through the delay
  // model, and an external strategy delivers them one at a time with
  // deliver_next(). Local (src == dst) deliveries keep their
  // immediate-event semantics — a site still never re-enters its own
  // handler — and crash() drops every parked flight touching the dead
  // site exactly as clock-driven delivery would on arrival, so payload
  // slots recycle and the conservation identity (in_flight() == 0 at
  // quiescence) keeps holding under explorer-chosen orders. Per-channel
  // FIFO is the one constraint a strategy cannot escape: only the head
  // flight of a channel is deliverable (deliver_parked's index seam
  // exists solely for the explorer's seeded FIFO-inversion mutation).
  void set_controlled(bool on);
  bool controlled() const { return controlled_; }
  struct Channel {
    SiteId src;
    SiteId dst;
  };
  // Channels with at least one parked flight, ascending (src, dst).
  void parked_channels(std::vector<Channel>& out) const;
  size_t parked_flights() const { return parked_total_; }
  size_t parked_count(SiteId src, SiteId dst) const;
  // Send instant of the index-th parked flight on a channel.
  Time parked_sent_at(SiteId src, SiteId dst, size_t index) const;
  // Delivers a channel's head flight at the current simulator instant.
  // Returns false when the channel has no parked flight.
  bool deliver_next(SiteId src, SiteId dst) {
    return deliver_parked(src, dst, 0);
  }
  // Mutation seam for seeded-negative tests: delivers the index-th parked
  // flight, deliberately violating FIFO when index > 0.
  bool deliver_parked(SiteId src, SiteId dst, size_t index);
  // Checkpointing (verify::World): overwrites this network's run state with
  // `other`'s — flights, parked queues, alive bits, FIFO floors, stats and
  // the payload slab. Both networks must be controlled, of one size, and
  // between deliveries. Not copied: the attached receivers and the
  // subscribers (each network keeps its own wiring), and the delay model
  // and its RNG, which controlled mode never samples.
  void copy_state_from(const Network& other);

  // Crashes a site: fail-silent from now on. Messages already in flight
  // toward it are dropped on arrival (immediately when controlled).
  void crash(SiteId id);
  bool alive(SiteId id) const { return alive_[static_cast<size_t>(id)]; }
  int alive_count() const;

  // --- Causal threading (src/obs/critpath) ----------------------------
  // The current cause is whatever protocol-relevant event last happened on
  // this logical thread of control: an attached SpanRecorder sets it after
  // recording each edge, and every send() staged while it is set carries it
  // (per message, in the flight's parallel cause array). At delivery the
  // stamped cause of the message being handed over is readable through
  // delivering_cause() for the duration of the receiver's handler, and the
  // current cause resets to kNoCause once the handler returns so traffic
  // from unobserved contexts (failure notices, replica ops) stays a root
  // rather than inheriting a stale predecessor. Detached runs only ever
  // copy kNoCause around — no branches, no behavioural change.
  void set_send_cause(CauseId c) { send_cause_ = c; }
  CauseId send_cause() const { return send_cause_; }
  CauseId delivering_cause() const { return delivering_cause_; }

  const NetworkStats& stats() const { return stats_; }

  // Flight pool high-water mark: distinct slots ever allocated. With
  // stats().flights_acquired this yields the pool recycling rate —
  // 1 - pool/acquired — tracked by the profiling layer (src/obs).
  size_t flight_pool_size() const { return flights_.size(); }

  // --- Observation (src/obs, tests) ----------------------------------
  // Append-only subscriber lists. Every delivery subscriber sees every
  // control message at delivery time, before the receiving site does; every
  // crash subscriber sees crash(id) before the call returns. Subscribers
  // are independent of each other — none can hide a message from another,
  // so attach order is irrelevant to what each one observes. A subscriber
  // must outlive the deliveries it sees and must not subscribe from inside
  // a callback.
  using DeliverFn = std::function<void(const Message&, LockId)>;
  using CrashFn = std::function<void(SiteId)>;
  void subscribe_delivery(DeliverFn fn) {
    deliver_subs_.push_back(std::move(fn));
  }
  void subscribe_crash(CrashFn fn) { crash_subs_.push_back(std::move(fn)); }

 private:
  static constexpr uint32_t kNilFlight = 0xffffffffu;

  // One in-flight wire bundle. Pooled; the first two messages are stored
  // inline (trivially-copyable Message makes the copy a memcpy) and only
  // bundles of 3+ touch the spill vector, whose capacity survives reuse —
  // so a steady-state send costs no allocation. Lock tags are parallel to
  // the message storage; `gen` bumps on every recycle so a stale
  // OpenFlight record (lock piggybacking) can never append into a slot
  // that has been reused.
  struct Flight {
    std::array<Message, 2> inline_msgs;
    std::array<LockId, 2> inline_locks{kLock0, kLock0};
    // Send-time cause per message (see set_send_cause), parallel to the
    // message storage like the lock tags.
    std::array<CauseId, 2> inline_causes{kNoCause, kNoCause};
    std::vector<Message> spill;  // messages beyond the first two
    std::vector<LockId> spill_locks;
    std::vector<CauseId> spill_causes;
    uint32_t inline_count = 0;
    uint32_t next_free = kNilFlight;
    uint64_t gen = 0;
  };

  // The channel's most recent scheduled-but-undelivered flight, eligible
  // for lock-piggyback appends. Valid only while the slot's gen matches.
  struct OpenFlight {
    uint32_t flight = kNilFlight;
    uint64_t gen = 0;
    Time created = 0;
    Time deliver = 0;
  };

  // One pooled side payload; acquire_payload() hands slots back zeroed
  // with container capacity retained.
  struct SidePayload {
    TokenPayload token;
    KvFields kv;
    uint32_t next_free = kNilFlight;
  };

  uint32_t acquire_flight();
  // Clears a flight's storage (capacity retained), bumps its gen, and
  // pushes it on the free list. Every recycle path funnels through here.
  void release_flight(uint32_t idx);
  PayloadId acquire_payload();
  void release_payload(PayloadId id);
  // Drops a staged-but-undelivered flight: releases its payload slots,
  // counts its messages as crash drops, and recycles the slot.
  void drop_flight(uint32_t idx);
  void deliver_flight(uint32_t idx);
  // Delivers one message; the subscriber branch is resolved per *flight* in
  // deliver_flight, so the detached path never tests the list per message.
  template <bool kHooked>
  void deliver_one(const Message& m, LockId lock, CauseId cause);

  // Stamps src/dst, counts wire stats, and schedules delivery (or drops
  // the bundle for a crashed sender, or appends it to the channel's open
  // flight under lock piggybacking).
  void stage(SiteId src, SiteId dst, uint32_t flight);

  sim::Simulator& sim_;
  std::unique_ptr<DelayModel> delay_;
  Rng rng_;
  std::vector<NetSite*> sites_;
  std::vector<bool> alive_;
  std::vector<Time> last_delivery_;  // FIFO floor per (src,dst)
  NetworkStats stats_;
  std::vector<Flight> flights_;
  uint32_t flight_free_ = kNilFlight;
  std::vector<SidePayload> payloads_;
  uint32_t payload_free_ = kNilFlight;
  // Lock-piggyback state: open-flight record per (src,dst) channel.
  Time pb_window_ = -1;  // < 0: disabled
  std::vector<OpenFlight> open_;
  std::vector<DeliverFn> deliver_subs_;
  std::vector<CrashFn> crash_subs_;
  // Causal threading (set_send_cause / delivering_cause).
  CauseId send_cause_ = kNoCause;
  CauseId delivering_cause_ = kNoCause;
  // Controlled-delivery state: parked flight queue per (src,dst) channel.
  // A vector, not a deque: an empty one owns no heap block (a deque
  // allocates ~576 B even while empty, n^2 times per network), and a queue
  // holds a handful of flights, so shifting it on delivery is noise.
  bool controlled_ = false;
  size_t parked_total_ = 0;
  std::vector<std::vector<uint32_t>> parked_;
};

}  // namespace dqme::net
