#include "obs/flight_recorder.h"

#include <fstream>
#include <set>

#include "common/check.h"
#include "common/json.h"
#include "obs/chrome_trace.h"
#include "obs/span.h"

namespace dqme::obs {

namespace {

// Dedicated lane for checker violations, far above any plausible SiteId.
constexpr SiteId kCheckerLane = 1'000'000;

}  // namespace

FlightRecorder::FlightRecorder(size_t capacity) : capacity_(capacity) {
  DQME_CHECK_MSG(capacity > 0, "flight recorder needs a positive capacity");
  ring_.reserve(capacity);
  notes_.reserve(capacity);
}

void FlightRecorder::push(const Event& e, const std::string& note) {
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
    notes_.push_back(note);
    return;
  }
  ring_[next_] = e;
  notes_[next_] = note;
  next_ = (next_ + 1) % capacity_;
}

void FlightRecorder::record(const Event& e) { push(e, {}); }

void FlightRecorder::record_violation(const std::string& what, Time at) {
  Event e;
  e.at = at;
  e.kind = EventKind::kViolation;
  push(e, what);
  if (dumped_ || dump_path_.empty()) return;
  dumped_ = true;  // first violation only, even if the dump itself fails
  dump_to(dump_path_);
}

size_t FlightRecorder::slot(size_t k) const {
  // next_ stays 0 until the ring wraps; after that it is the oldest slot.
  return (next_ + k) % ring_.size();
}

std::vector<Event> FlightRecorder::events() const {
  std::vector<Event> out;
  out.reserve(ring_.size());
  for (size_t k = 0; k < ring_.size(); ++k) out.push_back(ring_[slot(k)]);
  return out;
}

void FlightRecorder::dump(std::ostream& os) const {
  // Lane metadata first: the validator requires a thread_name for every tid
  // that carries events.
  std::set<SiteId> lanes;
  for (const Event& e : ring_)
    lanes.insert(e.kind == EventKind::kViolation ? kCheckerLane : e.site);

  TraceEventWriter w(os);
  for (SiteId lane : lanes) {
    const std::string name =
        lane == kCheckerLane ? "checker" : "site " + std::to_string(lane);
    w.event("thread_name", "__metadata", 'M', 0, lane, {},
            "{\"name\": \"" + name + "\"}");
  }

  for (size_t k = 0; k < ring_.size(); ++k) {
    const size_t i = slot(k);
    const Event& e = ring_[i];
    switch (e.kind) {
      case EventKind::kDeliver: {
        const net::Message& m = e.msg;
        w.event(net::to_string(m.type), "flightrec", 'X', e.at, e.site,
                "\"dur\": 1",
                "{\"src\": " + std::to_string(m.src) +
                    ", \"dst\": " + std::to_string(m.dst) +
                    ", \"sent_at\": " + std::to_string(m.sent_at) +
                    ", \"lock\": " + std::to_string(e.lock) +
                    ", \"span\": \"" + format_span(m.span) + "\"}");
        break;
      }
      case EventKind::kCrash:
        w.event("crash", "flightrec", 'X', e.at, e.site, "\"dur\": 1",
                "{\"site\": " + std::to_string(e.site) + "}");
        break;
      case EventKind::kViolation:
        w.event("violation", "flightrec", 'X', e.at, kCheckerLane,
                "\"dur\": 1", "{\"report\": " + json_string(notes_[i]) + "}");
        break;
      default:  // span edges
        w.event(to_string(e.kind), "flightrec", 'X', e.at, e.site,
                "\"dur\": 1",
                "{\"lock\": " + std::to_string(e.lock) + ", \"span\": \"" +
                    format_span(e.span) + "\"}");
        break;
    }
  }

  w.end(label_, ", \"recorded\": " + std::to_string(recorded_) +
                    ", \"capacity\": " + std::to_string(capacity_));
}

bool FlightRecorder::dump_to(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  dump(f);
  return f.good();
}

}  // namespace dqme::obs
