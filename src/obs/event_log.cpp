#include "obs/event_log.h"

#include <utility>

namespace dqme::obs {

std::string_view to_string(EventKind k) {
  switch (k) {
    case EventKind::kDeliver:   return "deliver";
    case EventKind::kCrash:     return "crash";
    case EventKind::kIssue:     return "issue";
    case EventKind::kEnter:     return "enter";
    case EventKind::kExit:      return "exit";
    case EventKind::kAbort:     return "abort";
    case EventKind::kViolation: return "violation";
  }
  return "?";
}

EventLog::EventLog(net::Network& net, size_t capacity)
    : net_(net), capacity_(capacity) {
  DQME_CHECK(capacity > 0);
  rec_.n_sites = net.size();
  net.subscribe_delivery([this](const net::Message& m, LockId lock) {
    // A wire edge's cause is whatever the *sender* was handling when the
    // message left: the network carried that index alongside the message.
    record(Event::delivery(m, lock, net_.now(), net_.delivering_cause()));
  });
  net.subscribe_crash(
      [this](SiteId site) { record(Event::crash(site, net_.now())); });
}

Recording EventLog::take(std::string label) {
  rec_.label = std::move(label);
  return std::move(rec_);
}

void EventLog::record(const Event& e) {
  if (rec_.events.size() == capacity_) {
    ++rec_.dropped;
    return;
  }
  rec_.events.push_back(e);
  // Anything sent from the current handler (or site call) is caused by the
  // event just recorded: the network stamps this index onto outgoing
  // messages until the next record() or the end of the delivery.
  if (e.kind != EventKind::kCrash)
    net_.set_send_cause(static_cast<net::CauseId>(rec_.events.size() - 1));
}

void EventLog::on_span_issue(SiteId site, LockId lock, SpanId span, Time at) {
  // Roots: a request is born of the workload, not of protocol traffic.
  record(Event::edge(EventKind::kIssue, site, lock, span, at));
}

void EventLog::on_span_enter(SiteId site, LockId lock, SpanId span, Time at) {
  // Entry fires inside the handler of the delivery that completed the
  // quorum (or granted the token): send_cause() still holds the index of
  // that delivery. A direct (local, no-wire) entry fires straight from
  // request_cs and links back to its own issue.
  record(Event::edge(EventKind::kEnter, site, lock, span, at,
                     net_.send_cause()));
}

void EventLog::on_span_exit(SiteId site, LockId lock, SpanId span, Time at) {
  // Roots: exit timing is the application's CS duration, not protocol
  // delay. (Messages sent by the release path chain FROM this edge.)
  record(Event::edge(EventKind::kExit, site, lock, span, at));
}

void EventLog::on_span_abort(SiteId site, LockId lock, SpanId span, Time at) {
  record(Event::edge(EventKind::kAbort, site, lock, span, at,
                     net_.send_cause()));
}

}  // namespace dqme::obs
