// Message trace capture.
//
// A TraceRecorder subscribes to Network deliveries and keeps a bounded
// record of every control message with its delivery time. Protocol tests
// replay or grep traces; tools/dqme_trace prints them as a timeline.
// Recording is opt-in and zero-cost when not attached.
#pragma once

#include <deque>
#include <functional>
#include <ostream>
#include <string>

#include "net/network.h"

namespace dqme::net {

// One retained delivery. `msg.payload` is always kNoPayload: the pool slot
// behind the original handle dies when the delivery handler returns, so the
// recorder severs it at capture time (see trace.cpp).
struct TraceEvent {
  Time at = 0;
  Message msg;
  LockId lock = kLock0;  // lock-table tag the flight carried for `msg`
};

class TraceRecorder {
 public:
  // Subscribes to `net`'s deliveries alongside any other observer.
  // `capacity` bounds memory: older events are dropped first.
  TraceRecorder(Network& net, size_t capacity = 100'000);

  const std::deque<TraceEvent>& events() const { return events_; }
  size_t dropped() const { return dropped_; }
  // Starts a fresh measurement window: both the retained events and the
  // drop count reset, so a reused recorder never reports stale drops.
  void clear() {
    events_.clear();
    dropped_ = 0;
  }

  // Events matching a predicate (e.g. one message type, one site).
  std::deque<TraceEvent> filter(
      const std::function<bool(const TraceEvent&)>& pred) const;

  // Human-readable timeline: "     1234  transfer[3->0 ...]".
  void print(std::ostream& os) const;

  // Counts events of one type (convenience for assertions).
  size_t count(MsgType t) const;

 private:
  sim::Simulator& sim_;
  size_t capacity_;
  size_t dropped_ = 0;
  std::deque<TraceEvent> events_;
};

}  // namespace dqme::net
