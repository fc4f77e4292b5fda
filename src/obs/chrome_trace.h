// Chrome trace-event (chrome://tracing / Perfetto) JSON exporter.
//
// Renders a recorded run as one lane per site (tid = site id, pid = 0):
//   * CS intervals as matched B/E slice pairs named "CS", tagged with the
//     request's span,
//   * per-request acquisition phases as async b/e pairs (id = span) from
//     issue to entry — the visible "waiting" bar,
//   * every wire message as a pair of thin X slices (send on the sender's
//     lane, delivery on the receiver's) joined by an s/f flow arrow. A
//     proxy-forwarded reply — the paper's 1T handoff mechanism — is
//     exported with cat "proxy" so it stands out (and is assertable).
//
// Ticks are microseconds (common/types.h), which is exactly the trace
// format's ts unit: timestamps pass through untouched.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event.h"

namespace dqme::obs {

// What to draw of a recording.
struct ChromeTraceView {
  // Export only events of this span (kNoSpan = all). Message slices keep
  // every flow arrow attached to the filtered span.
  SpanId only_span = kNoSpan;
  // Export only events of this lock (kNoLock = all): slices a multi-lock
  // run — 4096 lanes of interleaved traffic — down to one lock's story.
  LockId only_lock = kNoLock;
  // Critical-path highlight: indices into the recording's events of the
  // wire/proxy hops of ONE extracted CritPath (CritSegment::event of its
  // kWire/kProxy segments). Those message slices and flow arrows are
  // exported with an extra args entry "crit": 1, so the path that
  // determined the entry instant pops out of the flow-arrow thicket in the
  // viewer — and scripts/validate_trace.py can assert the tagged arrows
  // form a single time-ordered chain.
  std::vector<int32_t> crit_events;
};

// Writes the JSON object format: {"traceEvents": [...], ...}. The output
// is self-contained and loads directly in ui.perfetto.dev.
void write_chrome_trace(std::ostream& os, const Recording& run,
                        const ChromeTraceView& view = {});

// Every --trace-out path: writes the export to `path` and reports
// "[trace] wrote PATH (N messages, M events)" on `log`. Returns false, after
// "cannot write PATH" on std::cerr, when the file cannot be opened.
bool write_chrome_trace(const std::string& path, const Recording& run,
                        std::ostream& log, const ChromeTraceView& view = {});

// The one trace-event emitter: write_chrome_trace and the flight
// recorder's dump both write through it. Each event is one line, so the
// files grep well.
class TraceEventWriter {
 public:
  explicit TraceEventWriter(std::ostream& os);  // opens the event list

  // `extra` is pre-rendered members ("\"dur\": 1"); `args_json` a
  // pre-rendered object ("{...}"). Either may be empty.
  void event(std::string_view name, std::string_view cat, char ph, Time ts,
             SiteId tid, std::string_view extra = {},
             std::string_view args_json = {});

  // Closes the list. `other` is appended to the otherData object after its
  // label, pre-rendered (", \"key\": value").
  void end(std::string_view label, std::string_view other = {});

 private:
  std::ostream& os_;
  bool first_ = true;
};

}  // namespace dqme::obs
