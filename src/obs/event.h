// The observability record: one observation of a run, stored once.
//
// Every consumer in src/obs reads the same POD record — the Chrome trace
// writer, the critical-path engine, dqme_trace's timeline, the flight
// recorder and the rt backend's merged feed. An Event is one of:
//
//   * a delivery — `msg` reached site msg.dst, tagged with its lock,
//   * a crash    — `site` failed silently,
//   * a span edge — `site` issued, entered, left or gave up request `span`
//     on `lock` (mutex::SpanObserver's four edges).
//
// The wire edges of a span (request, grant, proxy grant, ...) are not
// stored separately: obs::edge_of (obs/span.h) derives one from a
// delivery's message. An obs::EventLog (obs/event_log.h) records a
// simulated run into one vector; rt::Runtime keeps per-site shards of the
// same record and merges them by step stamp.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/types.h"
#include "net/message.h"
#include "net/network.h"

namespace dqme::obs {

enum class EventKind : uint8_t {
  kDeliver,
  kCrash,
  kIssue,
  kEnter,
  kExit,
  kAbort,
  // A checker verdict. Only the flight recorder holds these: it keeps the
  // report text beside its ring.
  kViolation,
};

std::string_view to_string(EventKind k);

struct Event {
  Time at = 0;
  SpanId span = kNoSpan;  // deliveries: msg.span
  SiteId site = kNoSite;  // deliveries: the receiver, msg.dst
  LockId lock = kLock0;
  // Causal predecessor: index of the earlier event in the same log that
  // enabled this one — the event whose handler sent this message, or, for
  // an entry or abort, the delivery that triggered it. net::kNoCause marks
  // a root (issue, exit, crash, or a predecessor outside the log).
  net::CauseId cause = net::kNoCause;
  EventKind kind = EventKind::kDeliver;
  net::Message msg{};  // deliveries only

  // A retained delivery. The payload handle is severed here, the one place
  // a delivered message is kept past its handler: the backend recycles the
  // pool slot the moment on_message returns, and under explorer-chosen
  // delivery order the slot's next tenant is arbitrary.
  static Event delivery(const net::Message& m, LockId lock, Time at,
                        net::CauseId cause = net::kNoCause) {
    Event e;
    e.at = at;
    e.span = m.span;
    e.site = m.dst;
    e.lock = lock;
    e.cause = cause;
    e.msg = m;
    e.msg.payload = net::kNoPayload;
    return e;
  }
  static Event crash(SiteId site, Time at) {
    Event e;
    e.at = at;
    e.site = site;
    e.kind = EventKind::kCrash;
    return e;
  }
  static Event edge(EventKind kind, SiteId site, LockId lock, SpanId span,
                    Time at, net::CauseId cause = net::kNoCause) {
    Event e;
    e.at = at;
    e.span = span;
    e.site = site;
    e.lock = lock;
    e.cause = cause;
    e.kind = kind;
    return e;
  }

  bool delivered() const { return kind == EventKind::kDeliver; }
};

static_assert(std::is_trivially_copyable_v<Event>);

// A recorded run, as a capture hands it back (ExperimentConfig::capture)
// and write_chrome_trace reads it.
struct Recording {
  int n_sites = 0;
  std::string label;  // e.g. "cao-singhal n=9 T=1000 seed=1"
  std::vector<Event> events;
  size_t dropped = 0;  // newest events refused past the log's bound
};

}  // namespace dqme::obs
