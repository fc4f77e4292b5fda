#include "obs/span.h"

#include <cstdlib>

namespace dqme::obs {

std::string_view to_string(SpanEdge e) {
  switch (e) {
    case SpanEdge::kIssue:      return "issue";
    case SpanEdge::kEnter:      return "enter";
    case SpanEdge::kExit:       return "exit";
    case SpanEdge::kAbort:      return "abort";
    case SpanEdge::kRequest:    return "request";
    case SpanEdge::kGrant:      return "grant";
    case SpanEdge::kProxyGrant: return "proxy_grant";
    case SpanEdge::kFail:       return "fail";
    case SpanEdge::kInquire:    return "inquire";
    case SpanEdge::kYield:      return "yield";
    case SpanEdge::kTransfer:   return "transfer";
    case SpanEdge::kRelease:    return "release";
    case SpanEdge::kTokenReq:   return "token_req";
    case SpanEdge::kToken:      return "token";
    case SpanEdge::kMessage:    return "message";
  }
  return "unknown";
}

SpanEdge edge_of(const Event& e) {
  using net::MsgType;
  switch (e.kind) {
    case EventKind::kIssue: return SpanEdge::kIssue;
    case EventKind::kEnter: return SpanEdge::kEnter;
    case EventKind::kExit:  return SpanEdge::kExit;
    case EventKind::kAbort: return SpanEdge::kAbort;
    case EventKind::kDeliver:
      break;
    default:
      return SpanEdge::kMessage;
  }
  switch (e.msg.type) {
    case MsgType::kRequest:  return SpanEdge::kRequest;
    case MsgType::kReply:
      return e.msg.src == e.msg.arbiter ? SpanEdge::kGrant
                                        : SpanEdge::kProxyGrant;
    case MsgType::kFail:     return SpanEdge::kFail;
    case MsgType::kInquire:  return SpanEdge::kInquire;
    case MsgType::kYield:    return SpanEdge::kYield;
    case MsgType::kTransfer: return SpanEdge::kTransfer;
    case MsgType::kRelease:  return SpanEdge::kRelease;
    case MsgType::kTokenReq: return SpanEdge::kTokenReq;
    case MsgType::kToken:    return SpanEdge::kToken;
    default:
      return SpanEdge::kMessage;
  }
}

std::string format_span(SpanId s) {
  if (s == kNoSpan) return "-";
  return std::to_string(span_site(s)) + ":" + std::to_string(span_seq(s));
}

SpanId parse_span(const std::string& text) {
  const auto colon = text.find(':');
  if (colon == std::string::npos) {
    char* end = nullptr;
    const SpanId raw = std::strtoull(text.c_str(), &end, 10);
    return end != nullptr && *end == '\0' && end != text.c_str() ? raw
                                                                 : kNoSpan;
  }
  const std::string site_s = text.substr(0, colon);
  const std::string seq_s = text.substr(colon + 1);
  if (site_s.empty() || seq_s.empty()) return kNoSpan;
  char* end = nullptr;
  const long site = std::strtol(site_s.c_str(), &end, 10);
  if (*end != '\0' || site < 0) return kNoSpan;
  const SeqNum seq = std::strtoull(seq_s.c_str(), &end, 10);
  if (*end != '\0') return kNoSpan;
  return span_of(ReqId{seq, static_cast<SiteId>(site)});
}

}  // namespace dqme::obs
