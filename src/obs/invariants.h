// Online invariant checker (the correctness tentpole).
//
// Subscribes to the same seams as the recorders in span.h —
// mutex::SpanObserver for site edges, Network delivery and crash
// subscriptions for wire edges and crashes — and validates, as the run
// executes:
//
//   (a) safety      — at most one site inside the CS (Theorem 1, checked
//                     from span edges independently of harness::Metrics),
//                     and each arbiter's lock granted to at most one live
//                     request at a time (the §3 mechanism behind Theorem 1:
//                     a per-arbiter permission ledger reconstructed from
//                     delivered replies, yields and releases, crash-aware
//                     and matched on full request spans);
//   (b) conservation— every `transfer` an arbiter sends its lock holder is
//                     eventually discharged: by the proxy-forwarded `reply`,
//                     a parameterized `release`, a `yield`, or a crash of
//                     either party. Plus message conservation (everything
//                     staged is delivered or dropped by quiescence) and
//                     per-(src,dst) FIFO delivery order;
//   (c) liveness    — a watchdog flags any open request with no progress
//                     edge for `liveness_bound` ticks (deadlock/starvation
//                     detection). Crash-aware: a crashed owner's request is
//                     written off, and legal §6 recovery — which reissues
//                     the request on a fresh quorum — reads as progress.
//
// Everything is reconstructed from delivered messages and span edges; the
// checker holds no pointer into protocol internals, so a protocol bug
// cannot hide by corrupting the state it is checked against. Both seams
// fan out to every subscriber, so the checker sees the same edges whether
// it is attached before or after a recorder. Like the recorders, the
// checker is opt-in: a run that attaches none executes the exact same
// instruction stream as before.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mutex/mutex_site.h"
#include "net/network.h"

namespace dqme::obs {

class FlightRecorder;

struct InvariantOptions {
  // Flag any open request span with no progress edge for this many ticks.
  // 0 disables the watchdog. Must exceed the longest *legal* wait (about
  // N starvation-free CS cycles under saturation) or recovery window.
  Time liveness_bound = 0;
  // Apply the arbiter-permission and transfer-ledger rules (b)/(a'). Only
  // meaningful for quorum-arbitrated protocols (Maekawa, Cao-Singhal);
  // broadcast baselines like Lamport grant every request concurrently and
  // have no per-arbiter lock to audit.
  bool quorum_arbitration = true;
  // Cap on retained violation descriptions.
  size_t max_reports = 16;
};

class InvariantChecker final : public mutex::SpanObserver {
 public:
  // Subscribes to `net`'s deliveries and crashes. Site edges additionally
  // require attach(). Other observers may attach before or after.
  explicit InvariantChecker(net::Network& net, InvariantOptions opts = {});

  void attach(mutex::MutexSite& site) { site.add_span_observer(this); }
  template <typename Sites>
  void attach_all(Sites&& sites) {
    for (auto& s : sites) attach(*s);
  }

  // Seals the run: message conservation, undischarged transfer obligations,
  // and stale open spans become violations. Call once, after the drain.
  void finish(Time now);

  // Black-box wiring: the checker forwards every wire edge, span edge, and
  // crash it sees to `fr`, and feeds it each violation (triggering the
  // recorder's first-violation auto-dump). Feeding through the checker —
  // not through Network hooks — is what makes scripted selftest traffic
  // (observe() called directly) show up in the black box too. nullptr
  // detaches.
  void set_flight_recorder(FlightRecorder* fr) { flightrec_ = fr; }

  // Checkpointing (verify::World): takes over `other`'s ledgers, FIFO
  // floors, counters and reports. The network, options and flight recorder
  // stay this checker's own.
  void copy_state_from(const InvariantChecker& other);

  uint64_t checks() const { return checks_; }
  uint64_t violations() const { return violations_; }
  const std::vector<std::string>& reports() const { return reports_; }

  // Wire-edge entry point, invoked by the delivery hook. Public so negative
  // tests and `dqme_check --selftest` can script deliveries (including
  // illegal ones no live Network would produce) without a protocol stack.
  // The two-argument form scripts single-lock traffic (lock 0).
  void observe(const net::Message& m, LockId lock, Time at);
  void observe(const net::Message& m, Time at) { observe(m, kLock0, at); }

  // Crash entry point (the Network crash subscription). Public for the
  // same scripted-test reason as observe().
  void on_crash(SiteId site);

  // mutex::SpanObserver
  void on_span_issue(SiteId site, LockId lock, SpanId span, Time at) override;
  void on_span_enter(SiteId site, LockId lock, SpanId span, Time at) override;
  void on_span_exit(SiteId site, LockId lock, SpanId span, Time at) override;
  void on_span_abort(SiteId site, LockId lock, SpanId span, Time at) override;

 private:
  struct Obligation {
    ReqId target;
    Time opened_at = 0;
  };
  // Mirror of an arbiter's lock_: who holds the permission and under which
  // request span. Tracking the span (not just the site) lets the checker
  // match the protocols' full-ReqId comparisons — a stale yield or release
  // from a site's *previous* request must not free its current grant.
  struct Held {
    SiteId site = kNoSite;
    SpanId span = kNoSpan;
  };
  struct Watch {
    SpanId span = kNoSpan;
    Time last_progress = 0;
    bool flagged = false;
  };

  // Per-lock permission ledger. Locks are independent critical sections:
  // occupancy, arbiter permissions, transfer obligations, and open-request
  // watches are all judged within one lock. Only the FIFO floor stays
  // channel-global — delivery order is a property of the wire, which every
  // lock's traffic (and any piggybacked flight) shares.
  struct Ledger {
    // (a) CS occupancy, from span edges: site -> span it entered with.
    std::map<SiteId, SpanId> cs_occupants;
    // (a') per-arbiter permission holder, from the wire (kNoSite = free).
    std::map<SiteId, Held> holder;
    // (b) transfer ledger: (arbiter, holder) -> pending obligation. Keyed
    // so a newer transfer from the same arbiter supersedes the older one,
    // the way the holder's tran_stack honours only the latest (§3.1).
    std::map<std::pair<SiteId, SiteId>, Obligation> transfers;
    // (c) open request per site, plus the site's in-flight request span
    // (mirrors MutexSite per-lock active_span; needed to validate
    // transfers).
    std::map<SiteId, Watch> open_requests;
    std::map<SpanId, SiteId> span_owner;
    std::map<SiteId, SpanId> active_span;
  };

  void flag(const std::string& what);
  Ledger& ledger(LockId lock);
  // Violation-text suffix naming the lock; empty for lock 0 so single-lock
  // reports keep their historical wording.
  static std::string lock_tag(LockId lock);
  // True when `req` is the site's currently open request (its active span):
  // the condition under which a receiver honours rather than stale-drops a
  // message about it (DESIGN.md D1).
  static bool is_active(const Ledger& led, const ReqId& req);
  void discharge(Ledger& led, SiteId arbiter, SiteId holder);
  void progress(Ledger& led, SpanId span, Time at);
  void arm_watchdog();
  void watchdog_sweep();

  net::Network& net_;
  InvariantOptions opts_;
  FlightRecorder* flightrec_ = nullptr;

  std::map<LockId, Ledger> ledgers_;

  // (b) FIFO floor observed per (src, dst) channel (lock-agnostic).
  std::map<std::pair<SiteId, SiteId>, Time> fifo_floor_;

  bool watchdog_armed_ = false;
  bool finished_ = false;

  uint64_t checks_ = 0;
  uint64_t violations_ = 0;
  std::vector<std::string> reports_;
};

}  // namespace dqme::obs
