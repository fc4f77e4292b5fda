// Causal request spans.
//
// Every CS request attempt is a span, named by span_of(its ReqId) and
// piggybacked on every control message that works toward that request's CS
// entry (net::Message::span). A span's causal edges are read off the event
// log (obs/event_log.h):
//
//   * site edges  — issue / enter / exit / abort, reported by MutexSite
//     through the mutex::SpanObserver interface,
//   * wire edges  — request / grant / proxy-grant / fail / inquire /
//     transfer / yield / release, one per recorded delivery (each carries
//     both send and delivery instants): edge_of() classifies it.
//
// A grant delivered by a site other than the arbiter that owns the
// permission is a proxy grant — the §3 mechanism on the wire, and what the
// critical-path engine (obs/critpath.h) needs to tell the paper's 1·T
// handoff from Maekawa's 2·T relay through the arbiter.
#pragma once

#include <string>

#include "obs/event.h"

namespace dqme::obs {

enum class SpanEdge : uint8_t {
  // Site-side edges (from mutex::SpanObserver). from == to == the site.
  kIssue,
  kEnter,
  kExit,
  kAbort,
  // Wire edges, recorded at delivery. from/to = src/dst sites.
  kRequest,
  kGrant,       // reply delivered by the arbiter itself
  kProxyGrant,  // reply delivered on the arbiter's behalf by the CS holder
  kFail,
  kInquire,
  kYield,
  kTransfer,
  kRelease,
  // Token traffic (Raymond / Suzuki–Kasami). Tokens serve whole queues,
  // not one span, so these usually carry span == kNoSpan — the critical-
  // path extractor follows their `cause` links instead of span matching.
  kTokenReq,
  kToken,
  // Anything else: a delivery that advances no request span (a failure
  // notice, replica traffic), a crash or a checker verdict.
  kMessage,
};

std::string_view to_string(SpanEdge e);

// The edge an event is: its kind for site edges, its message type for
// deliveries. A reply is a kGrant when the arbiter itself sent it and a
// kProxyGrant when the CS holder forwarded it on the arbiter's behalf.
SpanEdge edge_of(const Event& e);

// Spans print and parse as "site:seq" (e.g. "3:17"), friendlier than the
// packed 64-bit value. parse accepts both spellings; returns kNoSpan on
// malformed input.
std::string format_span(SpanId s);
SpanId parse_span(const std::string& text);

}  // namespace dqme::obs
