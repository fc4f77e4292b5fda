#include "obs/chrome_trace.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>

#include "common/json.h"
#include "obs/span.h"

namespace dqme::obs {

TraceEventWriter::TraceEventWriter(std::ostream& os) : os_(os) {
  os_ << "{\"traceEvents\": [\n";
}

void TraceEventWriter::event(std::string_view name, std::string_view cat,
                             char ph, Time ts, SiteId tid,
                             std::string_view extra,
                             std::string_view args_json) {
  os_ << (first_ ? "  " : ",\n  ") << "{\"name\": " << json_string(name)
      << ", \"cat\": " << json_string(cat) << ", \"ph\": \"" << ph
      << "\", \"ts\": " << ts << ", \"pid\": 0, \"tid\": " << tid;
  if (!extra.empty()) os_ << ", " << extra;
  if (!args_json.empty()) os_ << ", \"args\": " << args_json;
  os_ << "}";
  first_ = false;
}

void TraceEventWriter::end(std::string_view label, std::string_view other) {
  os_ << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"label\": "
      << json_string(label) << other << "}}\n";
}

namespace {

std::string span_args(SpanId s) {
  return "{\"span\": \"" + format_span(s) + "\"}";
}

}  // namespace

void write_chrome_trace(std::ostream& os, const Recording& run,
                        const ChromeTraceView& view) {
  TraceEventWriter w(os);

  // Lane metadata: one "thread" per site, ordered by site id.
  for (SiteId s = 0; s < run.n_sites; ++s) {
    const std::string lane = "site " + std::to_string(s);
    w.event("thread_name", "__metadata", 'M', 0, s, {},
            "{\"name\": \"" + lane + "\"}");
    w.event("thread_sort_index", "__metadata", 'M', 0, s, {},
            "{\"sort_index\": " + std::to_string(s) + "}");
  }

  const auto keep = [&](const Event& e) {
    return (view.only_span == kNoSpan || e.span == view.only_span) &&
           (view.only_lock == kNoLock || e.lock == view.only_lock);
  };

  // CS intervals as matched B/E pairs, and request lifetimes as async b/e
  // pairs (issue -> enter/abort). Single forward walk; opens with no close
  // by end-of-trace are dropped so every emitted B has its E.
  std::map<SiteId, Time> open_cs;         // site -> its entry instant
  std::map<SpanId, Time> open_acquire;    // span -> its issue instant
  for (const Event& e : run.events) {
    if (!keep(e)) continue;
    switch (e.kind) {
      case EventKind::kIssue:
        open_acquire[e.span] = e.at;
        break;
      case EventKind::kEnter: {
        open_cs[e.site] = e.at;
        auto it = open_acquire.find(e.span);
        if (it != open_acquire.end()) {
          const std::string id = "\"id\": " + std::to_string(e.span);
          w.event("acquire", "request", 'b', it->second, e.site, id,
                  span_args(e.span));
          w.event("acquire", "request", 'e', e.at, e.site, id);
          open_acquire.erase(it);
        }
        break;
      }
      case EventKind::kExit: {
        auto it = open_cs.find(e.site);
        if (it != open_cs.end()) {
          w.event("CS", "cs", 'B', it->second, e.site, {},
                  span_args(e.span));
          w.event("CS", "cs", 'E', e.at, e.site);
          open_cs.erase(it);
        }
        break;
      }
      case EventKind::kAbort: {
        auto it = open_acquire.find(e.span);
        if (it != open_acquire.end()) {
          const std::string id = "\"id\": " + std::to_string(e.span);
          w.event("acquire (aborted)", "request", 'b', it->second, e.site,
                  id, span_args(e.span));
          w.event("acquire (aborted)", "request", 'e', e.at, e.site, id);
          open_acquire.erase(it);
        }
        break;
      }
      default:
        break;  // deliveries render below; crashes draw nothing
    }
  }

  std::vector<int32_t> crit = view.crit_events;
  std::sort(crit.begin(), crit.end());

  // Messages: a thin slice on each endpoint's lane plus an s/f flow arrow
  // joining them. Proxy-forwarded replies — the paper's 1T handoff — get
  // cat "proxy" and an explicit name; hops of the highlighted critical
  // path carry "crit": 1 in args (slices and both arrow endpoints).
  uint64_t flow_id = 0;
  for (size_t i = 0; i < run.events.size(); ++i) {
    const Event& e = run.events[i];
    if (!e.delivered() || !keep(e)) continue;
    const net::Message& m = e.msg;
    const bool proxy =
        m.type == net::MsgType::kReply && m.arbiter != kNoSite &&
        m.src != m.arbiter;
    const std::string name =
        proxy ? "reply (proxy)" : std::string(net::to_string(m.type));
    const std::string_view cat = proxy ? "proxy" : "msg";
    const bool on_path = std::binary_search(crit.begin(), crit.end(),
                                            static_cast<int32_t>(i));
    std::string args = span_args(m.span);
    if (on_path) args.insert(args.size() - 1, ", \"crit\": 1");
    const std::string id = "\"id\": " + std::to_string(++flow_id);
    // Zero-duration sends collapse in the viewer; give slices 1 tick.
    w.event(name, cat, 'X', m.sent_at, m.src, "\"dur\": 1", args);
    w.event(name, cat, 'X', e.at, m.dst, "\"dur\": 1", args);
    w.event(name, cat, 's', m.sent_at, m.src, id,
            on_path ? "{\"crit\": 1}" : "");
    w.event(name, cat, 'f', e.at, m.dst, id + ", \"bp\": \"e\"",
            on_path ? "{\"crit\": 1}" : "");
  }

  w.end(run.label);
}

bool write_chrome_trace(const std::string& path, const Recording& run,
                        std::ostream& log, const ChromeTraceView& view) {
  std::ofstream f(path);
  if (!f) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  write_chrome_trace(f, run, view);
  const auto messages = std::count_if(
      run.events.begin(), run.events.end(),
      [](const Event& e) { return e.delivered(); });
  log << "[trace] wrote " << path << " (" << messages << " messages, "
      << run.events.size() << " events"
      << (run.dropped > 0 ? ", truncated" : "") << ")\n";
  return true;
}

}  // namespace dqme::obs
