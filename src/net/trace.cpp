#include "net/trace.h"

#include <iomanip>

namespace dqme::net {

TraceRecorder::TraceRecorder(Network& net, size_t capacity)
    : sim_(net.simulator()), capacity_(capacity) {
  DQME_CHECK(capacity > 0);
  net.subscribe_delivery([this](const Message& m, LockId lock) {
    if (events_.size() == capacity_) {
      events_.pop_front();
      ++dropped_;
    }
    events_.push_back(TraceEvent{sim_.now(), m, lock});
    // A payload handle is only live while the delivery handler runs — the
    // network recycles the slot the moment on_message returns, and under
    // explorer-chosen (out-of-order) delivery the slot's next tenant is
    // arbitrary. Sever the handle in the retained copy so nothing can
    // dereference a recycled slot later.
    events_.back().msg.payload = kNoPayload;
  });
}

std::deque<TraceEvent> TraceRecorder::filter(
    const std::function<bool(const TraceEvent&)>& pred) const {
  std::deque<TraceEvent> out;
  for (const TraceEvent& e : events_)
    if (pred(e)) out.push_back(e);
  return out;
}

void TraceRecorder::print(std::ostream& os) const {
  if (dropped_ > 0)
    os << "... (" << dropped_ << " earlier events dropped)\n";
  for (const TraceEvent& e : events_) {
    os << std::setw(10) << e.at << "  " << e.msg;
    if (e.lock != kLock0) os << " [lock " << e.lock << "]";
    os << '\n';
  }
}

size_t TraceRecorder::count(MsgType t) const {
  size_t n = 0;
  for (const TraceEvent& e : events_) n += e.msg.type == t ? 1 : 0;
  return n;
}

}  // namespace dqme::net
