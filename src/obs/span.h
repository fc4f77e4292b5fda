// Causal request spans (the observability tentpole).
//
// Every CS request attempt is a span, named by span_of(its ReqId) and
// piggybacked on every control message that works toward that request's CS
// entry (net::Message::span). A SpanRecorder collects the span's causal
// edges from two attach-time hooks:
//
//   * site edges  — issue / enter / exit / abort, reported by MutexSite
//     through the mutex::SpanObserver interface,
//   * wire edges  — request / grant / proxy-grant / fail / inquire /
//     transfer / yield / release, observed at delivery time as a Network
//     delivery subscriber (each carries both send and delivery instants).
//
// Both seams fan out to every subscriber, so a recorder and an
// obs::InvariantChecker attach in either order and each sees every edge.
//
// The edge list makes the paper's Table 1 delay claim *causally* checkable:
// contended_handoffs() pairs every CS exit with the next contended entry,
// and flags whether the entry was produced by a proxy-forwarded reply (the
// §3 mechanism, exit→enter = 1·T) or by a release→reply relay through the
// arbiter (Maekawa, 2·T). Recording is opt-in; nothing here runs when no
// recorder is attached.
#pragma once

#include <string>
#include <vector>

#include "mutex/mutex_site.h"
#include "net/network.h"

namespace dqme::obs {

enum class SpanEdge : uint8_t {
  // Site-side edges (from mutex::SpanObserver). from == to == the site.
  kIssue,
  kEnter,
  kExit,
  kAbort,
  // Wire edges, recorded at delivery. from/to = src/dst sites.
  kRequest,
  kGrant,       // reply delivered by the arbiter itself
  kProxyGrant,  // reply delivered on the arbiter's behalf by the CS holder
  kFail,
  kInquire,
  kYield,
  kTransfer,
  kRelease,
  // Token traffic (Raymond / Suzuki–Kasami). Tokens serve whole queues,
  // not one span, so these usually carry span == kNoSpan — the critical-
  // path extractor follows their `cause` links instead of span matching.
  kTokenReq,
  kToken,
};

std::string_view to_string(SpanEdge e);

struct SpanEvent {
  Time at = 0;       // site edges: the instant; wire edges: delivery time
  Time sent_at = 0;  // wire edges: when the message left `from`
  SpanEdge edge = SpanEdge::kIssue;
  SpanId span = kNoSpan;
  SiteId from = kNoSite;
  SiteId to = kNoSite;
  SiteId arbiter = kNoSite;  // wire edges about a permission: whose
  // Span ids are derived from (site, seq) and can collide across locks;
  // (lock, span) is the unique request key in a multi-lock run.
  LockId lock = kLock0;
  // Causal predecessor: index of the earlier SpanEvent in the same
  // recorder's stream that *enabled* this one (the edge whose handler sent
  // this message, or — for site edges — the delivery that triggered the
  // state change). net::kNoCause marks a root (issue, exit, or an edge
  // whose predecessor fell outside the recorder's view).
  net::CauseId cause = net::kNoCause;
};

// One observed CS handoff under contention: `to` had already issued its
// request when `from` exited, and entered enter_at - exit_at later.
struct Handoff {
  Time exit_at = 0;
  Time enter_at = 0;
  SiteId from = kNoSite;
  SiteId to = kNoSite;
  SpanId span = kNoSpan;  // the entering request's span
  bool proxied = false;   // entry completed by a proxy-forwarded reply
  LockId lock = kLock0;   // handoffs pair exits/entries of the same lock
};

class SpanRecorder final : public mutex::SpanObserver {
 public:
  // Subscribes to `net`'s deliveries. Site edges additionally require
  // attach() / attach_all().
  explicit SpanRecorder(net::Network& net, size_t capacity = 1'000'000);

  void attach(mutex::MutexSite& site) { site.add_span_observer(this); }
  template <typename Sites>
  void attach_all(Sites&& sites) {
    for (auto& s : sites) attach(*s);
  }

  const std::vector<SpanEvent>& events() const { return events_; }
  size_t dropped() const { return dropped_; }

  // All edges of one span, in recording (= causal) order. Matches on the
  // span id alone (single-lock tooling); multi-lock consumers filter on
  // the event's (lock, span) pair.
  std::vector<SpanEvent> span(SpanId id) const;

  // Every contended exit→enter pair, time-ordered (see Handoff). Exits
  // and entries pair up within a lock: concurrent CS tenures on distinct
  // locks are legal and must not read as contention.
  std::vector<Handoff> contended_handoffs() const;

  // mutex::SpanObserver
  void on_span_issue(SiteId site, LockId lock, SpanId span, Time at) override;
  void on_span_enter(SiteId site, LockId lock, SpanId span, Time at) override;
  void on_span_exit(SiteId site, LockId lock, SpanId span, Time at) override;
  void on_span_abort(SiteId site, LockId lock, SpanId span, Time at) override;

 private:
  void record(SpanEvent e);
  void on_message(const net::Message& m, LockId lock, Time at);

  net::Network& net_;  // cause plumbing: set_send_cause / delivering_cause
  size_t capacity_;
  size_t dropped_ = 0;
  std::vector<SpanEvent> events_;
};

// Spans print and parse as "site:seq" (e.g. "3:17"), friendlier than the
// packed 64-bit value. parse accepts both spellings; returns kNoSpan on
// malformed input.
std::string format_span(SpanId s);
SpanId parse_span(const std::string& text);

}  // namespace dqme::obs
