#include "obs/chrome_trace.h"

#include <map>
#include <string_view>
#include <tuple>

#include "common/json.h"

namespace dqme::obs {

namespace {

// Emits one trace event object. `args_json` is pre-rendered ("{...}") or
// empty. Keeps every record on one line so the file greps well.
class EventWriter {
 public:
  explicit EventWriter(std::ostream& os) : os_(os) {}

  void begin() { os_ << "{\"traceEvents\": [\n"; }

  void event(std::string_view name, std::string_view cat, char ph, Time ts,
             SiteId tid, std::string_view extra = {},
             std::string_view args_json = {}) {
    os_ << (first_ ? "  " : ",\n  ") << "{\"name\": ";
    os_ << json_string(name);
    os_ << ", \"cat\": ";
    os_ << json_string(cat);
    os_ << ", \"ph\": \"" << ph << "\", \"ts\": " << ts
        << ", \"pid\": 0, \"tid\": " << tid;
    if (!extra.empty()) os_ << ", " << extra;
    if (!args_json.empty()) os_ << ", \"args\": " << args_json;
    os_ << "}";
    first_ = false;
  }

  void end(std::string_view label) {
    os_ << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"label\": ";
    os_ << json_string(label);
    os_ << "}}\n";
  }

 private:
  std::ostream& os_;
  bool first_ = true;
};

std::string span_args(SpanId s) {
  return "{\"span\": \"" + format_span(s) + "\"}";
}

}  // namespace

void write_chrome_trace(std::ostream& os, const ChromeTraceData& data) {
  EventWriter w(os);
  w.begin();

  // Lane metadata: one "thread" per site, ordered by site id.
  for (SiteId s = 0; s < data.n_sites; ++s) {
    const std::string lane = "site " + std::to_string(s);
    w.event("thread_name", "__metadata", 'M', 0, s, {},
            "{\"name\": \"" + lane + "\"}");
    w.event("thread_sort_index", "__metadata", 'M', 0, s, {},
            "{\"sort_index\": " + std::to_string(s) + "}");
  }

  const auto keep = [&](SpanId span, LockId lock) {
    return (data.only_span == kNoSpan || span == data.only_span) &&
           (data.only_lock == kNoLock || lock == data.only_lock);
  };

  // CS intervals as matched B/E pairs, and request lifetimes as async b/e
  // pairs (issue -> enter/abort). Single forward walk; opens with no close
  // by end-of-trace are dropped so every emitted B has its E.
  std::map<SiteId, SpanEvent> open_cs;        // site  -> its kEnter
  std::map<SpanId, SpanEvent> open_acquire;   // span  -> its kIssue
  for (const SpanEvent& e : data.span_events) {
    if (!keep(e.span, e.lock)) continue;
    switch (e.edge) {
      case SpanEdge::kIssue:
        open_acquire[e.span] = e;
        break;
      case SpanEdge::kEnter: {
        open_cs[e.from] = e;
        auto it = open_acquire.find(e.span);
        if (it != open_acquire.end()) {
          const std::string id = "\"id\": " + std::to_string(e.span);
          w.event("acquire", "request", 'b', it->second.at, e.from, id,
                  span_args(e.span));
          w.event("acquire", "request", 'e', e.at, e.from, id);
          open_acquire.erase(it);
        }
        break;
      }
      case SpanEdge::kExit: {
        auto it = open_cs.find(e.from);
        if (it != open_cs.end()) {
          w.event("CS", "cs", 'B', it->second.at, e.from, {},
                  span_args(e.span));
          w.event("CS", "cs", 'E', e.at, e.from);
          open_cs.erase(it);
        }
        break;
      }
      case SpanEdge::kAbort: {
        auto it = open_acquire.find(e.span);
        if (it != open_acquire.end()) {
          const std::string id = "\"id\": " + std::to_string(e.span);
          w.event("acquire (aborted)", "request", 'b', it->second.at, e.from,
                  id, span_args(e.span));
          w.event("acquire (aborted)", "request", 'e', e.at, e.from, id);
          open_acquire.erase(it);
        }
        break;
      }
      default:
        break;  // wire edges render from data.messages below
    }
  }

  // Critical-path hops, keyed by the wire coordinates a TraceEvent can
  // reproduce. Counted (not a set): identical duplicate messages tag one
  // arrow each, so the tagged arrows stay exactly one chain.
  std::map<std::tuple<Time, Time, SiteId, SiteId, LockId>, int> crit;
  for (int32_t idx : data.crit_events) {
    if (idx < 0 || static_cast<size_t>(idx) >= data.span_events.size())
      continue;
    const SpanEvent& e = data.span_events[static_cast<size_t>(idx)];
    ++crit[{e.sent_at, e.at, e.from, e.to, e.lock}];
  }

  // Messages: a thin slice on each endpoint's lane plus an s/f flow arrow
  // joining them. Proxy-forwarded replies — the paper's 1T handoff — get
  // cat "proxy" and an explicit name; hops of the highlighted critical
  // path carry "crit": 1 in args (slices and both arrow endpoints).
  uint64_t flow_id = 0;
  for (const net::TraceEvent& t : data.messages) {
    const net::Message& m = t.msg;
    if (!keep(m.span, t.lock)) continue;
    const bool proxy =
        m.type == net::MsgType::kReply && m.arbiter != kNoSite &&
        m.src != m.arbiter;
    const std::string name =
        proxy ? "reply (proxy)" : std::string(net::to_string(m.type));
    const std::string_view cat = proxy ? "proxy" : "msg";
    bool on_path = false;
    if (!crit.empty()) {
      auto it = crit.find({m.sent_at, t.at, m.src, m.dst, t.lock});
      if (it != crit.end() && it->second > 0) {
        --it->second;
        on_path = true;
      }
    }
    std::string args = span_args(m.span);
    if (on_path) args.insert(args.size() - 1, ", \"crit\": 1");
    const std::string id = "\"id\": " + std::to_string(++flow_id);
    // Zero-duration sends collapse in the viewer; give slices 1 tick.
    w.event(name, cat, 'X', m.sent_at, m.src, "\"dur\": 1", args);
    w.event(name, cat, 'X', t.at, m.dst, "\"dur\": 1", args);
    w.event(name, cat, 's', m.sent_at, m.src, id,
            on_path ? "{\"crit\": 1}" : "");
    w.event(name, cat, 'f', t.at, m.dst, id + ", \"bp\": \"e\"",
            on_path ? "{\"crit\": 1}" : "");
  }

  w.end(data.label);
}

}  // namespace dqme::obs
