// Black-box flight recorder: a bounded ring of recent protocol/net events.
//
// The aggregate layers (Registry, Timeline) tell you THAT something went
// wrong; the flight recorder tells you what the system was doing in the
// ticks right before. It keeps the last `capacity` events — message
// deliveries, span edges (issue/enter/exit/abort), crashes, and checker
// violations — in a fixed ring, and dumps them as a Chrome-trace-compatible
// file the moment the InvariantChecker flags its first violation (or,
// opt-in, on any crash). Every violation ships its own black box: the dump's
// tail is the violating event itself, preceded by the traffic that led there.
//
// Feeding: two modes, composable.
//   * Through the checker — InvariantChecker::set_flight_recorder forwards
//     every wire edge, span edge, crash, and violation it sees. This is the
//     canonical wiring: it also covers scripted traffic (`dqme_check
//     --selftest` calls checker.observe() directly, bypassing the Network).
//   * Directly — attach(net) subscribes to the Network's deliveries and
//     crashes, for checker-less runs.
//
// Cost model: one ring-slot assignment per event when attached; a run that
// never constructs a recorder executes no flight-recorder code at all (no
// subscriber is added — same detach contract as the tracer and the
// checker).
//
// Dump format: trace-event JSON ("X" instants, dur 1, one lane per site
// plus a "checker" lane for violations) accepted by ui.perfetto.dev and
// scripts/validate_trace.py. Events are written oldest-first, so the file's
// tail is the most recent history — the violation last.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "net/message.h"
#include "net/network.h"

namespace dqme::obs {

class FlightRecorder {
 public:
  enum class Kind : uint8_t {
    kDeliver,
    kCrash,
    kSpanIssue,
    kSpanEnter,
    kSpanExit,
    kSpanAbort,
    kViolation,
  };

  struct Event {
    Time at = 0;
    Kind kind = Kind::kDeliver;
    net::Message msg{};     // kDeliver only
    LockId lock = kNoLock;  // deliveries and span edges
    SiteId site = kNoSite;  // crash / span-edge subject
    SpanId span = kNoSpan;  // span edges
    std::string note;       // violation report text
  };

  explicit FlightRecorder(size_t capacity = 4096);

  // Subscribes to `net`'s deliveries and crashes, for runs without an
  // InvariantChecker. With a checker, prefer checker.set_flight_recorder(&fr)
  // — checker wiring also sees violations and scripted (selftest) traffic —
  // rather than both, which would record each delivery twice.
  void attach(net::Network& net);

  void record_message(const net::Message& m, LockId lock, Time at);
  void record_crash(SiteId site, Time at);
  void record_span(Kind kind, SiteId site, LockId lock, SpanId span, Time at);
  // Records the violation, then — first violation only — auto-dumps to the
  // configured path, so the dump's tail IS the violating event.
  void record_violation(const std::string& what, Time at);

  // Auto-dump destination; empty (default) disables auto-dumping.
  void set_dump_path(const std::string& path) { dump_path_ = path; }
  const std::string& dump_path() const { return dump_path_; }
  // Also auto-dump on the first crash (off by default: §6 runs crash on
  // purpose and a crash is not a failure).
  void set_dump_on_crash(bool on) { dump_on_crash_ = on; }
  void set_label(const std::string& label) { label_ = label; }

  size_t capacity() const { return capacity_; }
  // Events currently held (<= capacity).
  size_t size() const { return ring_.size(); }
  // Events ever recorded; recorded() - size() have been overwritten.
  uint64_t recorded() const { return recorded_; }
  bool dumped() const { return dumped_; }

  // Held events, oldest first; events_.back() is the most recent.
  std::vector<Event> events() const;

  // Chrome-trace dump of events(), oldest first. dump_to returns false when
  // the file cannot be opened (the run must not die on a bad dump path).
  void dump(std::ostream& os) const;
  bool dump_to(const std::string& path) const;

 private:
  void push(Event e);
  void maybe_dump();

  size_t capacity_;
  std::string dump_path_;
  std::string label_ = "flight recorder";
  bool dump_on_crash_ = false;
  bool dumped_ = false;

  std::vector<Event> ring_;  // grows to capacity_, then wraps at next_
  size_t next_ = 0;
  uint64_t recorded_ = 0;
};

}  // namespace dqme::obs
