// The event log: a simulated run recorded once, as one vector of obs::Event.
//
// An EventLog subscribes to the seams a Network and its sites expose —
// Network::subscribe_delivery, Network::subscribe_crash and
// MutexSite::add_span_observer — next to any other observer (the invariant
// checker, the timeline), and appends every delivery, crash and span edge
// it sees. The Chrome trace writer, the critical-path engine and
// dqme_trace's timeline all render from that one vector.
//
// Causes: after recording a delivery or a span edge, the log tells the
// network that the event just recorded is the current cause, so every
// message the handler (or site call) sends next carries that event's
// index, and its own delivery records it as `cause`. A crash enables
// nothing and sets no cause.
//
// Bound: a log holds at most kMaxEvents events. Past it the newest are
// refused and counted in Recording::dropped, so every recorded cause index
// stays valid. Recording is opt-in: a run that builds no log runs no log code.
#pragma once

#include <cstddef>
#include <string>

#include "mutex/mutex_site.h"
#include "net/network.h"
#include "obs/event.h"

namespace dqme::obs {

// The largest recorded bench rows hold ~80k events; a full log is ~110 MB.
inline constexpr size_t kMaxEvents = 1'000'000;

class EventLog final : public mutex::SpanObserver {
 public:
  // Subscribes to `net`'s deliveries and crashes. Span edges additionally
  // need attach() / attach_all(). `capacity` exists for tests of the bound.
  explicit EventLog(net::Network& net, size_t capacity = kMaxEvents);

  void attach(mutex::MutexSite& site) { site.add_span_observer(this); }
  template <typename Sites>
  void attach_all(Sites&& sites) {
    for (auto& s : sites) attach(*s);
  }

  const std::vector<Event>& events() const { return rec_.events; }
  // The run so far; n_sites is the network's size and the label is empty.
  const Recording& recording() const { return rec_; }
  // Moves the run out, labelled.
  Recording take(std::string label);

  // mutex::SpanObserver
  void on_span_issue(SiteId site, LockId lock, SpanId span, Time at) override;
  void on_span_enter(SiteId site, LockId lock, SpanId span, Time at) override;
  void on_span_exit(SiteId site, LockId lock, SpanId span, Time at) override;
  void on_span_abort(SiteId site, LockId lock, SpanId span, Time at) override;

 private:
  // Appends `e` (unless the log is full); a recorded delivery or span edge
  // becomes the network's current send cause.
  void record(const Event& e);

  net::Network& net_;  // cause plumbing: set_send_cause / delivering_cause
  size_t capacity_;
  Recording rec_;
};

}  // namespace dqme::obs
