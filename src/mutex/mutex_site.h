// Base class for all mutual exclusion protocol sites.
//
// A MutexSite is one protocol endpoint of the sharded lock service: it
// arbitrates `num_locks` independent lock objects (dense LockIds
// 0..num_locks-1) over one shared network endpoint, owning per lock the
// requester-side state of its own CS requests and (for permission-based
// protocols) the arbiter-side state for requests it votes on. All
// driver-visible state lives in a lock table indexed by LockId; the
// common single-lock configuration is just num_locks == 1 driving kLock0.
// The harness drives the public API:
//
//     site.request_cs(lock);             // precondition: idle(lock)
//     ... on_enter(id, lock) fires ...   // site is now in lock's CS
//     site.release_cs(lock);             // precondition: in_cs(lock)
//
// request_cs/release_cs/on_message must only be called from the site's
// thread of control (simulator events under net::Network; the site's own
// pump thread under rt::Runtime) — protocols are single-threaded per site.
#pragma once

#include <array>
#include <functional>
#include <typeinfo>
#include <vector>

#include "common/check.h"
#include "common/timestamp.h"
#include "common/types.h"
#include "net/executor.h"

namespace dqme::mutex {

// Observability hook (obs::EventLog, obs::InvariantChecker, the rt
// taps): protocols report the span-boundary instants of each CS request
// attempt, keyed by the lock it targets (span ids are derived from (site,
// seq) and can collide across locks — (lock, site, span) is the unique
// key). With no observer subscribed a boundary costs one predicted
// empty-list branch — per request, not per message — so detached runs keep
// the slab hot path intact.
class SpanObserver {
 public:
  virtual ~SpanObserver() = default;
  virtual void on_span_issue(SiteId site, LockId lock, SpanId span,
                             Time at) = 0;
  virtual void on_span_enter(SiteId site, LockId lock, SpanId span,
                             Time at) = 0;
  virtual void on_span_exit(SiteId site, LockId lock, SpanId span,
                            Time at) = 0;
  virtual void on_span_abort(SiteId site, LockId lock, SpanId span,
                             Time at) = 0;
};

class MutexSite : public net::NetSite {
 public:
  enum class State { kIdle, kRequesting, kInCS };

  // `num_locks` sizes the lock table; LockIds are dense 0..num_locks-1 and
  // every keyed call validates its LockId against that range.
  MutexSite(SiteId id, net::Executor& net, LockId num_locks = 1)
      : id_(id), net_(net) {
    DQME_CHECK(0 <= id && id < net.size());
    DQME_CHECK_MSG(num_locks >= 1,
                   "num_locks must be >= 1 (dense LockIds 0..M-1)");
    locks_.resize(static_cast<size_t>(num_locks));
  }

  SiteId id() const { return id_; }
  LockId num_locks() const { return static_cast<LockId>(locks_.size()); }

  State state(LockId lock) const { return lk(lock).state; }
  bool idle(LockId lock) const { return lk(lock).state == State::kIdle; }
  bool requesting(LockId lock) const {
    return lk(lock).state == State::kRequesting;
  }
  bool in_cs(LockId lock) const { return lk(lock).state == State::kInCS; }
  // Lock-0 conveniences for the dominant single-lock configuration.
  State state() const { return state(kLock0); }
  bool idle() const { return idle(kLock0); }
  bool requesting() const { return requesting(kLock0); }
  bool in_cs() const { return in_cs(kLock0); }

  // Begins acquiring `lock`'s CS. May fire on_enter synchronously (e.g. a
  // token holder with no contention).
  void request_cs(LockId lock) {
    DQME_CHECK_MSG(idle(lock), "site " << id_ << " already has a request");
    lk(lock).state = State::kRequesting;
    do_request(lock);
  }

  // Leaves `lock`'s CS and hands permissions onward per the protocol.
  void release_cs(LockId lock) {
    DQME_CHECK_MSG(in_cs(lock), "site " << id_ << " is not in the CS");
    LockState& L = lk(lock);
    L.state = State::kIdle;
    emit<&SpanObserver::on_span_exit>(lock, L.active_span);
    do_release(lock);
    L.active_span = kNoSpan;
  }

  // Checkpointing (verify::World): overwrites this site's run state — the
  // lock table, the stale-drop counters and every protocol field — with
  // `other`'s, a site of the same algorithm, id and options built on
  // another executor. The wiring stays this site's own: its executor,
  // on_enter/on_abort and span observers.
  void copy_state_from(const MutexSite& other) {
    DQME_CHECK(typeid(*this) == typeid(other) && id_ == other.id_);
    locks_ = other.locks_;
    stale_drops_ = other.stale_drops_;
    stale_by_type_ = other.stale_by_type_;
    copy_protocol_state(other);
  }

  // Attach-time observability (src/obs): `obs` sees the span edges of
  // every request this site issues from now on. Append-only — every
  // subscribed observer sees every edge, in subscription order, so
  // observers need not know about each other. Subscribing one twice is a
  // bug (it would see each edge twice).
  void add_span_observer(SpanObserver* obs) {
    DQME_CHECK(obs != nullptr);
    for (const SpanObserver* o : span_observers_)
      DQME_CHECK_MSG(o != obs,
                     "span observer subscribed twice to site " << id_);
    span_observers_.push_back(obs);
  }
  // Span of the in-flight request attempt on `lock`; kNoSpan when idle (or
  // for protocols that do not thread spans yet).
  SpanId active_span(LockId lock) const { return lk(lock).active_span; }
  SpanId active_span() const { return active_span(kLock0); }

  // How many wire hops the grant completing `lock`'s latest CS entry
  // travelled: 1 = proxy-forwarded reply (the §3 handoff), 2 = arbiter
  // relay, 0 = protocol does not classify entries. Feeds the analytic-
  // model gate (obs::mixed_sync_delay).
  int last_entry_hops(LockId lock) const { return lk(lock).last_entry_hops; }
  int last_entry_hops() const { return last_entry_hops(kLock0); }

  // Invoked at the instant the site enters a lock's CS.
  std::function<void(SiteId, LockId)> on_enter;

  // Invoked if the site abandons its current request on a lock because no
  // quorum can be formed (§6: the site "becomes inaccessible"). Only the
  // fault-tolerant configuration ever fires this.
  std::function<void(SiteId, LockId)> on_abort;

  uint64_t cs_entries(LockId lock) const { return lk(lock).cs_entries; }
  // Total CS entries across every lock of the table.
  uint64_t cs_entries() const {
    uint64_t total = 0;
    for (const LockState& L : locks_) total += L.cs_entries;
    return total;
  }
  // Messages dropped as stale/outdated (DESIGN.md D1). Diagnosable, not an
  // error: the protocol prescribes ignoring them — e.g. a transfer or
  // inquire that crosses the holder's release on the wire.
  uint64_t stale_drops() const { return stale_drops_; }
  uint64_t stale_drops(net::MsgType t) const {
    return stale_by_type_[static_cast<size_t>(t)];
  }

 protected:
  net::Executor& net() { return net_; }

  // Subclasses call this when all of `lock`'s permissions are assembled.
  void enter_cs(LockId lock) {
    DQME_CHECK_MSG(requesting(lock),
                   "site " << id_ << " entering CS while not requesting");
    LockState& L = lk(lock);
    L.state = State::kInCS;
    ++L.cs_entries;
    emit<&SpanObserver::on_span_enter>(lock, L.active_span);
    if (on_enter) on_enter(id_, lock);
  }

  // Subclasses call this the moment a request attempt's identity is fixed
  // (my_req assigned) — typically `open_span(lock, span_of(my_req))`. A §6
  // recovery that restarts on a fresh quorum opens a fresh span.
  void open_span(LockId lock, SpanId span) {
    lk(lock).active_span = span;
    emit<&SpanObserver::on_span_issue>(lock, span);
  }

  // Subclasses set this just before the enter_cs() a grant produces.
  void set_entry_hops(LockId lock, int hops) {
    lk(lock).last_entry_hops = hops;
  }

  void note_stale_drop() { ++stale_drops_; }
  void note_stale_drop(net::MsgType t) {
    ++stale_drops_;
    ++stale_by_type_[static_cast<size_t>(t)];
  }

  // Abandons `lock`'s in-flight request (fault-tolerance layer only).
  void abort_request(LockId lock) {
    DQME_CHECK(requesting(lock));
    LockState& L = lk(lock);
    L.state = State::kIdle;
    emit<&SpanObserver::on_span_abort>(lock, L.active_span);
    L.active_span = kNoSpan;
    if (on_abort) on_abort(id_, lock);
  }

  // Per-lock Lamport clock shared by timestamped protocols. Clocks are
  // independent across locks so an M-lock run makes exactly the per-lock
  // timestamp decisions M single-lock runs would (lock_table_test).
  SeqNum tick(LockId lock) { return ++lk(lock).clock; }
  void observe(LockId lock, SeqNum seen) {
    // kMaxSeq is the "(max,max)" sentinel carried by messages that do not
    // pertain to a real request (e.g. deferred replies) — never a clock.
    if (seen != kMaxSeq && seen > lk(lock).clock) lk(lock).clock = seen;
  }
  SeqNum clock(LockId lock) const { return lk(lock).clock; }

  virtual void do_request(LockId lock) = 0;
  virtual void do_release(LockId lock) = 0;
  // The subclass half of copy_state_from: copies every protocol field.
  // `other` has this site's dynamic type.
  virtual void copy_protocol_state(const MutexSite& other) = 0;

 private:
  // Driver-visible per-lock state; protocol subclasses keep their own
  // parallel lock tables (VoteMap/ReqQueue et al.) indexed the same way.
  struct LockState {
    State state = State::kIdle;
    uint64_t cs_entries = 0;
    SeqNum clock = 0;
    SpanId active_span = kNoSpan;
    int last_entry_hops = 0;
  };

  Time now() const { return net_.now(); }
  // Fans one span edge out to every subscribed observer, all stamped with
  // the same instant.
  template <void (SpanObserver::*Edge)(SiteId, LockId, SpanId, Time)>
  void emit(LockId lock, SpanId span) {
    if (span_observers_.empty()) return;
    const Time at = now();
    for (SpanObserver* o : span_observers_) (o->*Edge)(id_, lock, span, at);
  }
  LockState& lk(LockId lock) {
    DQME_CHECK_MSG(0 <= lock && lock < num_locks(),
                   "LockId " << lock << " outside dense range 0.."
                             << (num_locks() - 1));
    return locks_[static_cast<size_t>(lock)];
  }
  const LockState& lk(LockId lock) const {
    DQME_CHECK_MSG(0 <= lock && lock < num_locks(),
                   "LockId " << lock << " outside dense range 0.."
                             << (num_locks() - 1));
    return locks_[static_cast<size_t>(lock)];
  }

  SiteId id_;
  net::Executor& net_;
  std::vector<LockState> locks_;
  uint64_t stale_drops_ = 0;
  std::array<uint64_t, net::kNumMsgTypes> stale_by_type_{};
  std::vector<SpanObserver*> span_observers_;
};

}  // namespace dqme::mutex
