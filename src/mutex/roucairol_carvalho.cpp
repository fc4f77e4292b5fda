#include "mutex/roucairol_carvalho.h"

namespace dqme::mutex {

using net::Message;
using net::MsgType;

RoucairolCarvalhoSite::RoucairolCarvalhoSite(SiteId id, net::Executor& net,
                                             LockId num_locks)
    : MutexSite(id, net, num_locks), lk_(static_cast<size_t>(num_locks)) {
  for (Lk& L : lk_) {
    L.has_auth.assign(static_cast<size_t>(net.size()), false);
    L.deferred.assign(static_cast<size_t>(net.size()), false);
    // Per pair exactly one side starts with the token: the smaller id.
    for (SiteId j = 0; j < net.size(); ++j)
      L.has_auth[static_cast<size_t>(j)] = id < j;
  }
}

void RoucairolCarvalhoSite::do_request(LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  L.my_req = ReqId{tick(lock), id()};
  open_span(lock, span_of(L.my_req));
  L.missing = 0;
  for (SiteId j = 0; j < net().size(); ++j) {
    if (j == id() || L.has_auth[static_cast<size_t>(j)]) continue;
    ++L.missing;
    net().send(id(), j, net::make_request(L.my_req), lock);
  }
  if (L.missing == 0) enter_cs(lock);  // standing authorizations suffice!
}

void RoucairolCarvalhoSite::pass_token(LockId lock, SiteId to) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  DQME_CHECK(L.has_auth[static_cast<size_t>(to)]);
  L.has_auth[static_cast<size_t>(to)] = false;
  net().send(id(), to, net::make_reply(id(), ReqId{}), lock);
}

void RoucairolCarvalhoSite::do_release(LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  L.my_req = ReqId{};
  for (SiteId j = 0; j < net().size(); ++j) {
    if (!L.deferred[static_cast<size_t>(j)]) continue;
    L.deferred[static_cast<size_t>(j)] = false;
    pass_token(lock, j);
  }
  // Tokens of non-requesters are RETAINED — the whole point: a repeat
  // request by this site will not need them again.
}

void RoucairolCarvalhoSite::on_message(const Message& m, LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  observe(lock, m.req.seq);
  switch (m.type) {
    case MsgType::kRequest: {
      if (!L.has_auth[static_cast<size_t>(m.src)]) {
        // Our reply (the token) is already in flight to them: this request
        // was sent before it arrived and is satisfied by it.
        note_stale_drop();
        break;
      }
      const bool we_win =
          in_cs(lock) || (requesting(lock) && L.my_req < m.req);
      if (we_win) {
        L.deferred[static_cast<size_t>(m.src)] = true;
        break;
      }
      pass_token(lock, m.src);
      if (requesting(lock)) {
        // We still need the token back: re-request (the CR rule that keeps
        // both progress and the pairwise-token invariant).
        ++L.missing;
        net().send(id(), m.src, net::make_request(L.my_req), lock);
      }
      break;
    }
    case MsgType::kReply: {
      // The peer passed us the pairwise token.
      if (L.has_auth[static_cast<size_t>(m.src)]) {
        note_stale_drop();  // duplicate pass would break the invariant
        break;
      }
      L.has_auth[static_cast<size_t>(m.src)] = true;
      if (requesting(lock) && --L.missing == 0) enter_cs(lock);
      break;
    }
    default:
      DQME_CHECK_MSG(false, "roucairol-carvalho: unexpected " << m);
  }
}

void RoucairolCarvalhoSite::copy_protocol_state(const MutexSite& other) {
  lk_ = static_cast<const RoucairolCarvalhoSite&>(other).lk_;
}

}  // namespace dqme::mutex
