// Black-box flight recorder: a bounded ring of recent obs::Events.
//
// The aggregate layers (Registry, Timeline) tell you THAT something went
// wrong; the flight recorder tells you what the system was doing in the
// ticks right before. It keeps the last `capacity` events — message
// deliveries, span edges (issue/enter/exit/abort), crashes, and checker
// violations — in a fixed ring, and dumps them as a Chrome-trace-compatible
// file the moment the InvariantChecker flags its first violation. Every
// violation ships its own black box: the dump's tail is the violating event
// itself, preceded by the traffic that led there.
//
// Feeding: through the checker only. InvariantChecker::set_flight_recorder
// forwards every delivery, span edge, crash and violation it sees, as the
// same obs::Event record the event log keeps. That also covers scripted
// traffic (`dqme_check --selftest` calls checker.observe() directly,
// bypassing the Network).
//
// Cost model: one ring-slot assignment per event when attached; a run that
// never constructs a recorder executes no flight-recorder code at all (the
// checker forwards nothing — same detach contract as the event log).
//
// Dump format: trace-event JSON ("X" instants, dur 1, one lane per site
// plus a "checker" lane for violations), written through the same emitter
// as write_chrome_trace and accepted by ui.perfetto.dev and
// scripts/validate_trace.py. Events are written oldest-first, so the file's
// tail is the most recent history — the violation last.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/event.h"

namespace dqme::obs {

class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity = 4096);

  void record(const Event& e);
  // Records the violation (an Event of kind kViolation, its text kept
  // beside the ring), then — first violation only — auto-dumps to the
  // configured path, so the dump's tail IS the violating event.
  void record_violation(const std::string& what, Time at);

  // Auto-dump destination; empty (default) disables auto-dumping.
  void set_dump_path(const std::string& path) { dump_path_ = path; }
  const std::string& dump_path() const { return dump_path_; }
  void set_label(const std::string& label) { label_ = label; }

  size_t capacity() const { return capacity_; }
  // Events currently held (<= capacity).
  size_t size() const { return ring_.size(); }
  // Events ever recorded; recorded() - size() have been overwritten.
  uint64_t recorded() const { return recorded_; }
  bool dumped() const { return dumped_; }

  // Held events, oldest first; back() is the most recent.
  std::vector<Event> events() const;

  // Chrome-trace dump of events(), oldest first. dump_to returns false when
  // the file cannot be opened (the run must not die on a bad dump path).
  void dump(std::ostream& os) const;
  bool dump_to(const std::string& path) const;

 private:
  void push(const Event& e, const std::string& note);
  // Ring index of the k-th oldest held event.
  size_t slot(size_t k) const;

  size_t capacity_;
  std::string dump_path_;
  std::string label_ = "flight recorder";
  bool dumped_ = false;

  // Grows to capacity_, then wraps at next_. notes_ runs parallel to ring_:
  // a violation's report text, empty for every other event.
  std::vector<Event> ring_;
  std::vector<std::string> notes_;
  size_t next_ = 0;
  uint64_t recorded_ = 0;
};

}  // namespace dqme::obs
