#include "obs/span.h"

#include <algorithm>
#include <cstdlib>
#include <map>

namespace dqme::obs {

std::string_view to_string(SpanEdge e) {
  switch (e) {
    case SpanEdge::kIssue:      return "issue";
    case SpanEdge::kEnter:      return "enter";
    case SpanEdge::kExit:       return "exit";
    case SpanEdge::kAbort:      return "abort";
    case SpanEdge::kRequest:    return "request";
    case SpanEdge::kGrant:      return "grant";
    case SpanEdge::kProxyGrant: return "proxy_grant";
    case SpanEdge::kFail:       return "fail";
    case SpanEdge::kInquire:    return "inquire";
    case SpanEdge::kYield:      return "yield";
    case SpanEdge::kTransfer:   return "transfer";
    case SpanEdge::kRelease:    return "release";
    case SpanEdge::kTokenReq:   return "token_req";
    case SpanEdge::kToken:      return "token";
  }
  return "unknown";
}

SpanRecorder::SpanRecorder(net::Network& net, size_t capacity)
    : net_(net), capacity_(capacity) {
  DQME_CHECK(capacity > 0);
  net.subscribe_delivery([this](const net::Message& m, LockId lock) {
    on_message(m, lock, net_.simulator().now());
  });
}

void SpanRecorder::record(SpanEvent e) {
  if (events_.size() == capacity_) {
    ++dropped_;  // bounded memory: newest events are dropped past capacity
    return;
  }
  events_.push_back(e);
  // Anything sent from the current handler (or site call) is caused by the
  // edge just recorded: the network stamps this index onto outgoing
  // messages until the next record() or end of delivery overwrites it.
  net_.set_send_cause(static_cast<net::CauseId>(events_.size() - 1));
}

void SpanRecorder::on_message(const net::Message& m, LockId lock, Time at) {
  using net::MsgType;
  SpanEdge edge;
  switch (m.type) {
    case MsgType::kRequest:  edge = SpanEdge::kRequest; break;
    case MsgType::kReply:
      edge = m.src == m.arbiter ? SpanEdge::kGrant : SpanEdge::kProxyGrant;
      break;
    case MsgType::kFail:     edge = SpanEdge::kFail; break;
    case MsgType::kInquire:  edge = SpanEdge::kInquire; break;
    case MsgType::kYield:    edge = SpanEdge::kYield; break;
    case MsgType::kTransfer: edge = SpanEdge::kTransfer; break;
    case MsgType::kRelease:  edge = SpanEdge::kRelease; break;
    case MsgType::kTokenReq: edge = SpanEdge::kTokenReq; break;
    case MsgType::kToken:    edge = SpanEdge::kToken; break;
    default:
      return;  // replica / failure traffic carries no request span
  }
  // A wire edge's cause is whatever the *sender* was handling when the
  // message left: the network carried that index alongside the message.
  record(SpanEvent{at, m.sent_at, edge, m.span, m.src, m.dst, m.arbiter,
                   lock, net_.delivering_cause()});
}

void SpanRecorder::on_span_issue(SiteId site, LockId lock, SpanId span,
                                 Time at) {
  // Roots: a request is born of the workload, not of protocol traffic.
  record(SpanEvent{at, at, SpanEdge::kIssue, span, site, site, kNoSite, lock,
                   net::kNoCause});
}
void SpanRecorder::on_span_enter(SiteId site, LockId lock, SpanId span,
                                 Time at) {
  // Entry fires inside the handler of the delivery that completed the
  // quorum (or granted the token): send_cause() still holds the index of
  // the wire edge record() just logged for it. A direct (local, no-wire)
  // entry fires straight from request_cs and links back to its own issue.
  record(SpanEvent{at, at, SpanEdge::kEnter, span, site, site, kNoSite, lock,
                   net_.send_cause()});
}
void SpanRecorder::on_span_exit(SiteId site, LockId lock, SpanId span,
                                Time at) {
  // Roots: exit timing is the application's CS duration, not protocol
  // delay. (Messages sent by the release path chain FROM this edge.)
  record(SpanEvent{at, at, SpanEdge::kExit, span, site, site, kNoSite, lock,
                   net::kNoCause});
}
void SpanRecorder::on_span_abort(SiteId site, LockId lock, SpanId span,
                                 Time at) {
  record(SpanEvent{at, at, SpanEdge::kAbort, span, site, site, kNoSite, lock,
                   net_.send_cause()});
}

std::vector<SpanEvent> SpanRecorder::span(SpanId id) const {
  std::vector<SpanEvent> out;
  for (const SpanEvent& e : events_)
    if (e.span == id) out.push_back(e);
  return out;
}

std::vector<Handoff> SpanRecorder::contended_handoffs() const {
  // Events are already in causal (recording) order: walk once per lock,
  // tracking each request's issue time, the lock's last exit, and proxy
  // grants delivered at the entering instant. Locks are independent
  // critical sections, so all of this state is keyed by lock — an exit on
  // lock A never makes an entry on lock B look contended.
  struct Key {  // (lock, span) — span ids alone collide across locks
    LockId lock;
    SpanId span;
    bool operator<(const Key& o) const {
      return lock != o.lock ? lock < o.lock : span < o.span;
    }
  };
  struct LastExit {
    Time at = 0;
    SiteId site = kNoSite;
  };
  std::map<Key, Time> issued;
  std::map<Key, Time> proxy_granted;  // (lock, span) -> latest proxy grant
  std::map<LockId, LastExit> last_exit;
  std::vector<Handoff> out;
  for (const SpanEvent& e : events_) {
    switch (e.edge) {
      case SpanEdge::kIssue:
        issued[Key{e.lock, e.span}] = e.at;
        break;
      case SpanEdge::kProxyGrant:
        proxy_granted[Key{e.lock, e.span}] = e.at;
        break;
      case SpanEdge::kExit:
        last_exit[e.lock] = LastExit{e.at, e.from};
        break;
      case SpanEdge::kEnter: {
        auto ex = last_exit.find(e.lock);
        if (ex == last_exit.end()) break;  // first tenure on this lock
        auto it = issued.find(Key{e.lock, e.span});
        if (it == issued.end() || it->second > ex->second.at)
          break;  // uncontended
        auto pg = proxy_granted.find(Key{e.lock, e.span});
        const bool proxied = pg != proxy_granted.end() &&
                             pg->second > ex->second.at && pg->second <= e.at;
        out.push_back(Handoff{ex->second.at, e.at, ex->second.site, e.from,
                              e.span, proxied, e.lock});
        break;
      }
      default:
        break;
    }
  }
  return out;
}

std::string format_span(SpanId s) {
  if (s == kNoSpan) return "-";
  return std::to_string(span_site(s)) + ":" + std::to_string(span_seq(s));
}

SpanId parse_span(const std::string& text) {
  const auto colon = text.find(':');
  if (colon == std::string::npos) {
    char* end = nullptr;
    const SpanId raw = std::strtoull(text.c_str(), &end, 10);
    return end != nullptr && *end == '\0' && end != text.c_str() ? raw
                                                                 : kNoSpan;
  }
  const std::string site_s = text.substr(0, colon);
  const std::string seq_s = text.substr(colon + 1);
  if (site_s.empty() || seq_s.empty()) return kNoSpan;
  char* end = nullptr;
  const long site = std::strtol(site_s.c_str(), &end, 10);
  if (*end != '\0' || site < 0) return kNoSpan;
  const SeqNum seq = std::strtoull(seq_s.c_str(), &end, 10);
  if (*end != '\0') return kNoSpan;
  return span_of(ReqId{seq, static_cast<SiteId>(site)});
}

}  // namespace dqme::obs
