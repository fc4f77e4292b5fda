#include "mutex/maekawa.h"

#include <algorithm>
#include <utility>

namespace dqme::mutex {

using net::Message;
using net::MsgType;

MaekawaSite::MaekawaSite(
    SiteId id, net::Executor& net, const quorum::QuorumSystem& quorums,
    LockId num_locks,
    std::function<const quorum::QuorumSystem*(LockId)> quorum_for_lock)
    : MutexSite(id, net, num_locks), lk_(static_cast<size_t>(num_locks)) {
  for (LockId l = 0; l < num_locks; ++l) {
    const quorum::QuorumSystem* qs =
        quorum_for_lock ? quorum_for_lock(l) : nullptr;
    if (qs == nullptr) qs = &quorums;
    Lk& L = lk_[static_cast<size_t>(l)];
    L.req_set = qs->quorum_for(id);
    DQME_CHECK(!L.req_set.empty());
  }
}

void MaekawaSite::do_request(LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  L.my_req = ReqId{tick(lock), id()};
  open_span(lock, span_of(L.my_req));
  L.failed = false;
  L.pending_inquires.clear();
  L.voted.assign(L.req_set.size());
  for (SiteId j : L.req_set)
    net().send(id(), j, net::make_request(L.my_req), lock);
}

void MaekawaSite::do_release(LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  const ReqId done = L.my_req;
  L.my_req = ReqId{};
  L.pending_inquires.clear();
  for (SiteId j : L.req_set)
    net().send(id(), j, net::make_release(done, ReqId{}), lock);
}

void MaekawaSite::on_message(const Message& m, LockId lock) {
  observe(lock, m.req.seq);
  switch (m.type) {
    case MsgType::kRequest: handle_request(m, lock); break;
    case MsgType::kReply:   handle_reply(m, lock);   break;
    case MsgType::kFail:    handle_fail(m, lock);    break;
    case MsgType::kInquire: handle_inquire(m, lock); break;
    case MsgType::kYield:   handle_yield(m, lock);   break;
    case MsgType::kRelease: handle_release(m, lock); break;
    case MsgType::kFailureNotice: break;  // baseline is not fault-tolerant
    default:
      DQME_CHECK_MSG(false, "maekawa: unexpected " << m);
  }
}

// ---------------------------------------------------------------- requester

void MaekawaSite::handle_reply(const Message& m, LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  if (!requesting(lock) || m.req != L.my_req) {
    note_stale_drop();
    return;
  }
  const int pos = L.voted.find(L.req_set, m.src);
  DQME_CHECK_MSG(pos >= 0, "reply from non-arbiter " << m.src);
  L.voted.grant(static_cast<size_t>(pos));
  // Maekawa replies always relay through the arbiter: release -> reply,
  // the 2T synchronization delay the proposed algorithm's proxy removes.
  set_entry_hops(lock, 2);
  try_enter(lock);
}

void MaekawaSite::handle_fail(const Message& m, LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  if (!requesting(lock) || m.req != L.my_req) {
    note_stale_drop();
    return;
  }
  L.failed = true;
  // Any inquire we sat on can now be answered: we know we are blocked.
  auto pending = std::move(L.pending_inquires);
  L.pending_inquires.clear();
  for (SiteId arbiter : pending) answer_inquire(lock, arbiter);
}

void MaekawaSite::handle_inquire(const Message& m, LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  if (!requesting(lock) || m.req != L.my_req) {
    note_stale_drop();  // e.g. we already exited; release supersedes it
    return;
  }
  answer_inquire(lock, m.src);
}

void MaekawaSite::answer_inquire(LockId lock, SiteId arbiter) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  DQME_CHECK(requesting(lock));
  const int pos = L.voted.find(L.req_set, arbiter);
  DQME_CHECK_MSG(pos >= 0, "inquire from non-arbiter " << arbiter);
  if (!L.voted.test(static_cast<size_t>(pos))) {
    // Channels are FIFO and replies come only from the arbiter itself in
    // Maekawa, so an inquire can't precede its reply — but it CAN arrive
    // after we yielded this very lock; nothing to yield then.
    note_stale_drop();
    return;
  }
  if (L.failed) {
    L.voted.revoke(static_cast<size_t>(pos));
    net().send(id(), arbiter, net::make_yield(arbiter, L.my_req), lock);
  } else {
    // Still hopeful: defer. If we enter the CS the release answers it; if a
    // fail arrives the handler above yields.
    L.pending_inquires.push_back(arbiter);
  }
}

void MaekawaSite::try_enter(LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  if (!requesting(lock)) return;
  if (!L.voted.all()) return;
  L.pending_inquires.clear();  // answered implicitly by release at exit
  enter_cs(lock);
}

// ----------------------------------------------------------------- arbiter

void MaekawaSite::grant(LockId lock, const ReqId& r) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  L.lock = r;
  L.inquire_outstanding = false;
  net().send(id(), r.site, net::make_reply(id(), r), lock);
}

void MaekawaSite::grant_next_from_queue(LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  if (L.req_queue.empty()) {
    L.lock = ReqId{};
    L.inquire_outstanding = false;
    return;
  }
  ReqId head = L.req_queue.front();
  L.req_queue.pop_front();
  grant(lock, head);
}

void MaekawaSite::handle_request(const Message& m, LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  const ReqId r = m.req;
  if (!L.lock.valid()) {
    DQME_CHECK(L.req_queue.empty());
    grant(lock, r);
    return;
  }
  // Exactly one *favourite* per tenure: a request that outranks the lock
  // holder and every waiter, with an inquire outstanding for it. Everyone
  // else is told it failed — including a favourite the moment it is
  // displaced (without that fail the displaced site can defer another
  // arbiter's inquire forever and deadlock; this is the classic correction
  // to Maekawa's original algorithm).
  const bool have_head = !L.req_queue.empty();
  const ReqId head = have_head ? L.req_queue.front() : ReqId{};
  if (r < L.lock && (!have_head || r < head)) {
    if (have_head && head < L.lock)
      net().send(id(), head.site, net::make_fail(id(), head), lock);
    if (!L.inquire_outstanding) {
      L.inquire_outstanding = true;
      net().send(id(), L.lock.site, net::make_inquire(id(), L.lock), lock);
    }
  } else {
    net().send(id(), r.site, net::make_fail(id(), r), lock);
  }
  L.req_queue.insert(r);
}

void MaekawaSite::handle_yield(const Message& m, LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  if (!L.lock.valid() || L.lock != m.req) {
    note_stale_drop();
    return;
  }
  L.req_queue.insert(L.lock);  // the yielder still wants the CS
  grant_next_from_queue(lock);
}

void MaekawaSite::handle_release(const Message& m, LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  if (!L.lock.valid() || L.lock != m.req) {
    note_stale_drop();
    return;
  }
  grant_next_from_queue(lock);
}

void MaekawaSite::copy_protocol_state(const MutexSite& other) {
  lk_ = static_cast<const MaekawaSite&>(other).lk_;
}

}  // namespace dqme::mutex
