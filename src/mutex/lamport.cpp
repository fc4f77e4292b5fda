#include "mutex/lamport.h"

namespace dqme::mutex {

using net::Message;
using net::MsgType;

LamportSite::LamportSite(SiteId id, net::Executor& net, LockId num_locks)
    : MutexSite(id, net, num_locks), lk_(static_cast<size_t>(num_locks)) {
  for (Lk& L : lk_) L.replied.assign(static_cast<size_t>(net.size()), false);
}

void LamportSite::do_request(LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  L.my_req = ReqId{tick(lock), id()};
  open_span(lock, span_of(L.my_req));
  L.queue.insert(L.my_req);
  std::fill(L.replied.begin(), L.replied.end(), false);
  L.replies_needed = net().size() - 1;
  for (SiteId j = 0; j < net().size(); ++j)
    if (j != id()) net().send(id(), j, net::make_request(L.my_req), lock);
  try_enter(lock);  // N == 1 degenerates to local mutual exclusion
}

void LamportSite::do_release(LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  L.queue.erase(L.my_req);
  for (SiteId j = 0; j < net().size(); ++j)
    if (j != id())
      net().send(id(), j, net::make_release(L.my_req, ReqId{}), lock);
  L.my_req = ReqId{};
}

void LamportSite::on_message(const Message& m, LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  observe(lock, m.req.seq);
  switch (m.type) {
    case MsgType::kRequest: {
      L.queue.insert(m.req);
      Message reply = net::make_reply(id(), m.req);
      reply.seq = tick(lock);  // carries a clock value above the request's
      net().send(id(), m.src, reply, lock);
      break;
    }
    case MsgType::kReply: {
      if (!requesting(lock) || m.req != L.my_req) {
        note_stale_drop();
        break;
      }
      observe(lock, m.seq);
      if (!L.replied[static_cast<size_t>(m.src)]) {
        L.replied[static_cast<size_t>(m.src)] = true;
        --L.replies_needed;
      }
      try_enter(lock);
      break;
    }
    case MsgType::kRelease: {
      L.queue.erase(m.req);
      try_enter(lock);
      break;
    }
    default:
      DQME_CHECK_MSG(false, "lamport: unexpected " << m);
  }
}

void LamportSite::try_enter(LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  if (!requesting(lock) || L.replies_needed > 0) return;
  if (!L.queue.empty() && *L.queue.begin() == L.my_req) enter_cs(lock);
}

void LamportSite::copy_protocol_state(const MutexSite& other) {
  lk_ = static_cast<const LamportSite&>(other).lk_;
}

}  // namespace dqme::mutex
