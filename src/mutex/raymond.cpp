#include "mutex/raymond.h"

#include <algorithm>

namespace dqme::mutex {

using net::Message;
using net::MsgType;

RaymondSite::RaymondSite(SiteId id, net::Executor& net, LockId num_locks)
    : MutexSite(id, net, num_locks),
      parent_(id == 0 ? kNoSite : (id - 1) / 2),
      lk_(static_cast<size_t>(num_locks)) {
  for (Lk& L : lk_) L.holder = id == 0 ? id : parent_;
}

void RaymondSite::do_request(LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  open_span(lock, span_of(ReqId{++L.seq, id()}));
  L.request_q.push_back(id());
  assign_privilege(lock);
  make_request(lock);
}

void RaymondSite::do_release(LockId lock) {
  assign_privilege(lock);
  make_request(lock);
}

// Passes the privilege to the head of the queue if we hold an idle token.
void RaymondSite::assign_privilege(LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  if (L.holder != id() || in_cs(lock) || L.request_q.empty()) return;
  SiteId next = L.request_q.front();
  L.request_q.erase(L.request_q.begin());
  L.asked = false;
  if (next == id()) {
    enter_cs(lock);
    return;
  }
  L.holder = next;
  Message token;
  token.type = MsgType::kToken;
  net().send(id(), next, token, lock);
}

// Asks the current holder direction for the token if we still need it.
void RaymondSite::make_request(LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  if (L.holder == id() || L.request_q.empty() || L.asked) return;
  L.asked = true;
  Message req;
  req.type = MsgType::kTokenReq;
  net().send(id(), L.holder, req, lock);
}

void RaymondSite::on_message(const Message& m, LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  switch (m.type) {
    case MsgType::kTokenReq: {
      // A neighbour wants the token through us; remember it once.
      if (std::find(L.request_q.begin(), L.request_q.end(), m.src) ==
          L.request_q.end())
        L.request_q.push_back(m.src);
      assign_privilege(lock);
      make_request(lock);
      break;
    }
    case MsgType::kToken: {
      L.holder = id();
      assign_privilege(lock);
      make_request(lock);
      break;
    }
    default:
      DQME_CHECK_MSG(false, "raymond: unexpected " << m);
  }
}

void RaymondSite::copy_protocol_state(const MutexSite& other) {
  lk_ = static_cast<const RaymondSite&>(other).lk_;
}

}  // namespace dqme::mutex
