#include "mutex/suzuki_kasami.h"

#include <algorithm>

namespace dqme::mutex {

using net::Message;
using net::MsgType;

SuzukiKasamiSite::SuzukiKasamiSite(SiteId id, net::Executor& net,
                                   LockId num_locks)
    : MutexSite(id, net, num_locks), lk_(static_cast<size_t>(num_locks)) {
  for (Lk& L : lk_) {
    L.rn.assign(static_cast<size_t>(net.size()), 0);
    if (id == 0) {
      L.token.ln.assign(static_cast<size_t>(net.size()), 0);
      L.has_token = true;
    }
  }
}

void SuzukiKasamiSite::do_request(LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  SeqNum sn = ++L.rn[static_cast<size_t>(id())];
  open_span(lock, span_of(ReqId{sn, id()}));
  if (L.has_token) {
    enter_cs(lock);
    return;
  }
  Message req;
  req.type = MsgType::kTokenReq;
  req.req = ReqId{sn, id()};
  req.seq = sn;
  for (SiteId j = 0; j < net().size(); ++j)
    if (j != id()) net().send(id(), j, req, lock);
}

void SuzukiKasamiSite::do_release(LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  DQME_CHECK(L.has_token);
  L.token.ln[static_cast<size_t>(id())] = L.rn[static_cast<size_t>(id())];
  // Append every site with an outstanding (unserved) request.
  for (SiteId j = 0; j < net().size(); ++j) {
    if (j == id()) continue;
    if (L.rn[static_cast<size_t>(j)] ==
            L.token.ln[static_cast<size_t>(j)] + 1 &&
        std::find(L.token.queue.begin(), L.token.queue.end(), j) ==
            L.token.queue.end())
      L.token.queue.push_back(j);
  }
  pass_token_if_due(lock);
}

void SuzukiKasamiSite::pass_token_if_due(LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  if (!L.has_token || in_cs(lock) || L.token.queue.empty()) return;
  SiteId next = L.token.queue.front();
  L.token.queue.erase(L.token.queue.begin());
  send_token(lock, next);
}

void SuzukiKasamiSite::send_token(LockId lock, SiteId to) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  Message tok;
  tok.type = MsgType::kToken;
  net().attach_token(tok) = std::move(L.token);
  L.has_token = false;
  net().send(id(), to, tok, lock);
}

void SuzukiKasamiSite::on_message(const Message& m, LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  switch (m.type) {
    case MsgType::kTokenReq: {
      auto j = static_cast<size_t>(m.src);
      L.rn[j] = std::max(L.rn[j], m.seq);
      // An idle token holder serves the request immediately.
      if (L.has_token && idle(lock) && L.rn[j] == L.token.ln[j] + 1)
        send_token(lock, m.src);
      break;
    }
    case MsgType::kToken: {
      DQME_CHECK(!L.has_token);
      L.token = net().take_token(m);
      L.has_token = true;
      DQME_CHECK_MSG(requesting(lock),
                     "suzuki-kasami: token sent to a non-requesting site");
      enter_cs(lock);
      break;
    }
    default:
      DQME_CHECK_MSG(false, "suzuki-kasami: unexpected " << m);
  }
}

void SuzukiKasamiSite::copy_protocol_state(const MutexSite& other) {
  lk_ = static_cast<const SuzukiKasamiSite&>(other).lk_;
}

}  // namespace dqme::mutex
