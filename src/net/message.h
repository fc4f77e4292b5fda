// Control messages exchanged by the mutual exclusion protocols.
//
// One tagged struct covers every protocol in the repo (paper §3.1 plus the
// baselines). Fields are reused across types; the table below documents
// which fields are meaningful for which type. Unused fields stay at their
// defaults and are ignored by receivers.
//
//   type       | fields used
//   -----------+-------------------------------------------------------------
//   kRequest   | req (the requesting site's timestamp)
//   kReply     | arbiter (whose permission is granted), req (request granted)
//   kRelease   | req (releaser's request), target (request the releaser
//              |   forwarded this arbiter's reply to; !valid() == "max",
//              |   i.e. nothing was forwarded — paper's release(i,max))
//   kInquire   | arbiter, req (request being inquired)
//   kFail      | arbiter, req (request that failed)
//   kYield     | arbiter (whose permission is returned), req (yielder's req)
//   kTransfer  | arbiter, target (request to forward to), req (holder's
//              |   request — validity guard, DESIGN.md D1/D3)
//   kTokenReq  | req.site (requester), seq (request number) — token algos
//   kToken     | payload: token state (Suzuki-Kasami) / none (Raymond)
//   kFailureNotice | arbiter (= the site that failed) — §6 failure(i)
//   kRead      | payload: kv.key; seq (op id) — replica layer (§7 ext.)
//   kReadReply | payload: kv (key/value/version); seq (op id)
//   kWrite     | payload: kv (key/value/version); seq (op id)
//   kWriteAck  | payload: kv.key, kv.version; seq (op id)
//
// Stale-message hardening (DESIGN.md D1): control messages carry the ReqId
// of the request they pertain to, so receivers drop messages about finished
// or superseded requests instead of relying solely on channel FIFO order.
#pragma once

#include <ostream>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/timestamp.h"
#include "common/types.h"

namespace dqme::net {

enum class MsgType : uint8_t {
  kRequest,
  kReply,
  kRelease,
  kInquire,
  kFail,
  kYield,
  kTransfer,
  kTokenReq,
  kToken,
  kFailureNotice,
  // Replica-control layer (§7 extension).
  kRead,
  kReadReply,
  kWrite,
  kWriteAck,
};

inline constexpr int kNumMsgTypes = 14;

std::string_view to_string(MsgType t);

// Token state shipped by token-based baselines (Suzuki-Kasami). Exactly one
// site holds the token at a time; ownership moves with the message. Both
// fields are vectors because moving one leaves the source empty without
// touching the heap, so a handoff allocates nothing; a std::deque
// allocates a map and a node for its moved-from side.
struct TokenPayload {
  std::vector<SeqNum> ln;      // LN[j]: seq number of j's last served request
  std::vector<SiteId> queue;   // sites waiting for the token, oldest first
};

// Replicated-data fields (§7 extension layer).
struct KvFields {
  int64_t key = 0;
  int64_t value = 0;
  int64_t version = 0;
};

// Handle to a side payload (token state / kv fields) pooled by the Network.
// Only kToken and the replica-layer messages carry one; every other control
// message ships the sentinel. The Network owns the slot for the message's
// whole flight and recycles it once the receiver's handler returns (or the
// message is dropped by crash semantics) — a Message copy retained past
// delivery must therefore sever the handle (net::TraceRecorder does, at
// capture time), because the recycled slot may back an unrelated flight by
// the time anyone looks.
using PayloadId = uint32_t;
inline constexpr PayloadId kNoPayload = 0xffffffffu;

struct Message {
  ReqId req;      // request this message pertains to (see table)
  ReqId target;
  SeqNum seq = 0;

  // Observability piggyback (src/obs): the causal span this message
  // advances — span_of() of the request whose CS entry the message works
  // toward (for a transfer, the *target*'s request, not the holder's).
  // Stamped by the make_* constructors; kNoSpan for non-request traffic.
  SpanId span = kNoSpan;
  // When the message left its sender; filled by Network::stage so trace
  // consumers can draw send->deliver arrows without a second hook.
  Time sent_at = 0;

  SiteId src = kNoSite;  // filled by Network::send
  SiteId dst = kNoSite;  // filled by Network::send
  SiteId arbiter = kNoSite;
  PayloadId payload = kNoPayload;  // Network::attach_kv / attach_token
  MsgType type = MsgType::kRequest;

  friend std::ostream& operator<<(std::ostream& os, const Message& m);
};

// The whole point of the side-payload split: a control message is a flat
// 80-byte struct the flight pool can copy with memcpy — no shared_ptr
// refcount traffic, no destructor walk, on the hot path. Growing Message
// is a hot-path regression; think twice and re-measure (bench/micro_core).
static_assert(std::is_trivially_copyable_v<Message>);
static_assert(sizeof(Message) <= 80);

// Constructors for the Cao-Singhal / Maekawa message vocabulary. They keep
// protocol code close to the paper's notation: e.g. `transfer(k, j)` in the
// paper is `make_transfer(target_req, arbiter, holder_req)` here.
Message make_request(ReqId req);
Message make_reply(SiteId arbiter, ReqId granted_req);
Message make_release(ReqId releaser_req, ReqId forwarded_to);
Message make_inquire(SiteId arbiter, ReqId inquired_req);
Message make_fail(SiteId arbiter, ReqId failed_req);
Message make_yield(SiteId arbiter, ReqId yielder_req);
Message make_transfer(ReqId target_req, SiteId arbiter, ReqId holder_req);
Message make_failure_notice(SiteId failed_site);

}  // namespace dqme::net
