#include "core/cao_singhal.h"

#include <algorithm>
#include <utility>

namespace dqme::core {

using net::Message;
using net::MsgType;

CaoSinghalSite::CaoSinghalSite(SiteId id, net::Executor& net,
                               const quorum::QuorumSystem& quorums,
                               Options options)
    : MutexSite(id, net, options.num_locks),
      opt_(std::move(options)),
      quorums_(quorums),
      lk_(static_cast<size_t>(opt_.num_locks)),
      alive_(static_cast<size_t>(net.size()), true) {
  DQME_CHECK(quorums.num_sites() == net.size());
}

const quorum::QuorumSystem& CaoSinghalSite::qs(LockId lock) const {
  if (opt_.quorum_for_lock) {
    const quorum::QuorumSystem* q = opt_.quorum_for_lock(lock);
    if (q != nullptr) {
      DQME_CHECK(q->num_sites() == quorums_.num_sites());
      return *q;
    }
  }
  return quorums_;
}

void CaoSinghalSite::send_to(SiteId dst, const Message* msgs, size_t n,
                             LockId lock) {
  DQME_CHECK(n > 0);
  if (opt_.piggyback) {
    net().send_bundle(id(), dst, msgs, n, lock);
  } else {
    for (size_t i = 0; i < n; ++i) net().send(id(), dst, msgs[i], lock);
  }
}

// ------------------------------------------------------------- requesting

void CaoSinghalSite::do_request(LockId lock) {
  DQME_CHECK_MSG(!stalled_, "site " << id() << " is stalled (no quorum)");
  Lk& L = lk_[static_cast<size_t>(lock)];
  if (opt_.fault_tolerant) {
    auto q = qs(lock).quorum_for_alive(id(), alive_);
    if (!q) {
      stalled_ = true;
      abort_request(lock);
      return;
    }
    L.req_set = *q;
  } else if (L.req_set.empty()) {
    L.req_set = qs(lock).quorum_for(id());
  }
  begin_request(lock);
}

// A.1: reset per-request state and ask every arbiter in req_set.
void CaoSinghalSite::begin_request(LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  L.my_req = ReqId{tick(lock), id()};
  open_span(lock, span_of(L.my_req));
  L.failed = false;
  L.tran_stack.clear();
  L.inq_queue.clear();
  L.voted.assign(L.req_set.size());
  for (SiteId j : L.req_set)
    net().send(id(), j, net::make_request(L.my_req), lock);
}

// Step B: enter once every arbiter's permission is held.
void CaoSinghalSite::try_enter(LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  if (!requesting(lock)) return;
  if (!L.voted.all()) return;
  // Deferred inquires die here: the release at exit answers them (D2).
  L.inq_queue.clear();
  enter_cs(lock);
}

// A.6: a reply — direct from the arbiter, or forwarded by a proxy.
void CaoSinghalSite::handle_reply(const Message& m, LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  if (!requesting(lock) || m.req != L.my_req) {
    note_stale_drop(MsgType::kReply);
    return;
  }
  const int pos = L.voted.find(L.req_set, m.arbiter);
  DQME_CHECK_MSG(pos >= 0,
                 "reply for arbiter " << m.arbiter << " not in req_set of "
                                      << id());
  const auto p = static_cast<size_t>(pos);
  if (L.voted.test(p)) {  // duplicate grant: protocol error upstream
    note_stale_drop(MsgType::kReply);
    return;
  }
  L.voted.grant(p);
  // "first check if there is any inquire that came from the same sender as
  // that of the reply. If so, process this inquire."
  auto q = std::find(L.inq_queue.begin(), L.inq_queue.end(), m.arbiter);
  if (q != L.inq_queue.end()) {
    L.inq_queue.erase(q);
    process_inquire(lock, m.arbiter);
  }
  // If this reply completes the quorum, the entry rode the proxy handoff
  // (1 hop, Table 1's 1T case) when the holder forwarded it, the arbiter
  // relay (2 hops) otherwise.
  set_entry_hops(lock, m.src != m.arbiter ? 1 : 2);
  try_enter(lock);
}

// A.3 entry point.
void CaoSinghalSite::handle_inquire(const Message& m, LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  if (m.req != L.my_req || idle(lock)) {
    // Also covers "inquire arrives after we sent release": ignore (§3).
    note_stale_drop(MsgType::kInquire);
    return;
  }
  if (in_cs(lock)) {
    // D2: never yield from inside the CS; the release at exit answers it.
    note_stale_drop(MsgType::kInquire);
    return;
  }
  process_inquire(lock, m.src);
}

// A.3 body, also re-run when the matching reply or a fail arrives.
void CaoSinghalSite::process_inquire(LockId lock, SiteId arbiter) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  DQME_CHECK(requesting(lock));
  const int pos = L.voted.find(L.req_set, arbiter);
  DQME_CHECK_MSG(pos >= 0,
                 "inquire from non-arbiter " << arbiter << " at " << id());
  if (L.voted.test(static_cast<size_t>(pos)) && L.failed) {
    // Give the permission back and cancel any forwarding duty we accepted
    // on this arbiter's behalf.
    L.voted.revoke(static_cast<size_t>(pos));
    ++stats_.yields_sent;
    std::erase_if(L.tran_stack, [&](const TranEntry& e) {
      return e.arbiter == arbiter;
    });
    net().send(id(), arbiter, net::make_yield(arbiter, L.my_req), lock);
    return;
  }
  // Not resolvable yet: either the reply has not arrived (proxy channels —
  // the case FIFO alone cannot order), or we are still hopeful (failed ==
  // 0) and will answer when a fail arrives or at release.
  if (std::find(L.inq_queue.begin(), L.inq_queue.end(), arbiter) ==
      L.inq_queue.end()) {
    L.inq_queue.push_back(arbiter);
    ++stats_.inquires_deferred;
  }
}

// A.7.
void CaoSinghalSite::handle_fail(const Message& m, LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  if (!requesting(lock) || m.req != L.my_req) {
    note_stale_drop(MsgType::kFail);
    return;
  }
  L.failed = true;
  drain_inquire_queue(lock);
}

void CaoSinghalSite::drain_inquire_queue(LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  auto pending = std::move(L.inq_queue);
  L.inq_queue.clear();
  for (SiteId arbiter : pending) process_inquire(lock, arbiter);
}

// A.5.
void CaoSinghalSite::handle_transfer(const Message& m, LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  if (idle(lock) || m.req != L.my_req) {
    note_stale_drop(MsgType::kTransfer);
    return;
  }
  const int pos = L.voted.find(L.req_set, m.arbiter);
  DQME_CHECK(pos >= 0);
  if (!L.voted.test(static_cast<size_t>(pos))) {
    // Outdated (we yielded this permission) or early (the forwarded reply
    // has not reached us). Both are discarded per A.5; in the early case
    // the arbiter recovers through the release(i, max) path.
    ++stats_.transfers_ignored;
    return;
  }
  L.tran_stack.push_back(TranEntry{m.target, m.arbiter});
  ++stats_.transfers_accepted;
}

// Step C: exit protocol — forward replies as proxy, then notify arbiters.
// The grouping the node-based maps used to produce — destinations visited
// in ascending order, each bundle holding that destination's forwarded
// replies (arbiter-ascending) followed by its release — is reproduced here
// with three scratch vectors whose capacity survives across tenures, so a
// CS exit allocates nothing in steady state.
void CaoSinghalSite::do_release(LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  const ReqId done = L.my_req;
  // C.1: honour the newest transfer per arbiter (stack order), discarding
  // superseded ones from the same sender.
  fwd_scratch_.clear();
  for (auto it = L.tran_stack.rbegin(); it != L.tran_stack.rend(); ++it) {
    bool superseded = false;
    for (const TranEntry& e : fwd_scratch_)
      if (e.arbiter == it->arbiter) {
        superseded = true;
        break;
      }
    if (!superseded) fwd_scratch_.push_back(*it);
  }
  L.tran_stack.clear();
  std::sort(
      fwd_scratch_.begin(), fwd_scratch_.end(),
      [](const TranEntry& a, const TranEntry& b) { return a.arbiter < b.arbiter; });

  // Group everything exit-bound by destination so replies forwarded on
  // behalf of several arbiters to the same next entrant ride together.
  dst_scratch_.clear();
  for (const TranEntry& e : fwd_scratch_) dst_scratch_.push_back(e.target.site);
  dst_scratch_.insert(dst_scratch_.end(), L.req_set.begin(), L.req_set.end());
  std::sort(dst_scratch_.begin(), dst_scratch_.end());
  dst_scratch_.erase(std::unique(dst_scratch_.begin(), dst_scratch_.end()),
                     dst_scratch_.end());

  for (SiteId dst : dst_scratch_) {
    out_scratch_.clear();
    for (const TranEntry& e : fwd_scratch_) {
      if (e.target.site != dst) continue;
      out_scratch_.push_back(net::make_reply(e.arbiter, e.target));
      ++stats_.replies_forwarded;
    }
    if (std::find(L.req_set.begin(), L.req_set.end(), dst) !=
        L.req_set.end()) {
      // C.2: release(i, j) tells the arbiter a reply went to S_j on its
      // behalf; release(i, max) tells it nothing was forwarded.
      ReqId fwd;
      for (const TranEntry& e : fwd_scratch_)
        if (e.arbiter == dst) {
          fwd = e.target;
          break;
        }
      out_scratch_.push_back(net::make_release(done, fwd));
    }
    send_to(dst, out_scratch_.data(), out_scratch_.size(), lock);
  }

  L.my_req = ReqId{};
  L.voted.clear();
  L.inq_queue.clear();
}

// --------------------------------------------------------------- arbiter

// A.2. The printed pseudocode garbles the fail rule; §5.2's per-case
// message accounting (every contended case ships a fail) pins it down:
// exactly one request per tenure is the arbiter's *favourite* — it beats
// the lock holder and every waiter, and an inquire is outstanding for it.
// Every other contended arrival is told it failed; a displaced favourite
// (case 4) is told so the moment it is displaced. Without those fails a
// holder can defer an inquire forever and the 2-cycle of §4's Theorem 2
// proof deadlocks (see tests/cao_singhal_protocol_test.cpp).
void CaoSinghalSite::handle_request(const Message& m, LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  const ReqId r = m.req;
  // A site issues requests one at a time (per lock), so an older queued
  // request from the same site has been abandoned (§6 recovery) —
  // supersede it.
  L.req_queue.erase_if([&](const ReqId& q) { return q.site == r.site; });

  if (!L.lock.valid()) {
    DQME_CHECK_MSG(L.req_queue.empty(),
                   "arbiter " << id() << " free but queue non-empty");
    L.lock = r;
    L.inquired_this_tenure = false;
    ++case_stats_.grant_free;
    ++stats_.replies_direct;
    net().send(id(), r.site, net::make_reply(id(), r), lock);
    return;
  }

  const bool have_head = !L.req_queue.empty();
  const ReqId head = have_head ? L.req_queue.front() : ReqId{};

  if (r < L.lock && (!have_head || r < head)) {
    // Cases 1 (queue empty), 5 (r < lock < head), 4 (r < head < lock):
    // r is the new favourite. Ask the holder to yield (once per tenure)
    // and re-point the proxy at r.
    if (!have_head) {
      ++case_stats_.c1_empty_higher;
    } else if (head < L.lock) {
      // Case 4: the old favourite is displaced and learns it failed.
      ++case_stats_.c4_displace_head;
      net().send(id(), head.site, net::make_fail(id(), head), lock);
    } else {
      ++case_stats_.c5_beats_lock;
    }
    Message bundle[2];
    size_t nb = 0;
    if (!L.inquired_this_tenure) {
      L.inquired_this_tenure = true;
      bundle[nb++] = net::make_inquire(id(), L.lock);
    }
    if (opt_.proxy_transfer)
      bundle[nb++] = net::make_transfer(r, id(), L.lock);
    if (nb > 0) send_to(L.lock.site, bundle, nb, lock);
  } else if (!have_head || r < head) {
    // Cases 2 (queue empty) and 6 (lock < r < head): r is the best waiter
    // but the holder outranks it. r fails — so it will yield elsewhere if
    // inquired — yet the holder will still hand over to it directly at
    // exit, which is where the delay-T handoff comes from.
    if (!have_head)
      ++case_stats_.c2_empty_lower;
    else
      ++case_stats_.c6_between;
    net().send(id(), r.site, net::make_fail(id(), r), lock);
    if (opt_.proxy_transfer)
      net().send(id(), L.lock.site, net::make_transfer(r, id(), L.lock),
                 lock);
  } else {
    // Case 3: r is not even the best waiter.
    ++case_stats_.c3_fail_newcomer;
    net().send(id(), r.site, net::make_fail(id(), r), lock);
  }
  L.req_queue.insert(r);
}

// Shared by A.4, release(i, max), and §6 unlock paths.
void CaoSinghalSite::grant_next_from_queue(LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  L.inquired_this_tenure = false;
  if (L.req_queue.empty()) {
    L.lock = ReqId{};
    return;
  }
  const ReqId head = L.req_queue.front();
  L.req_queue.pop_front();
  L.lock = head;
  Message bundle[2];
  size_t nb = 0;
  bundle[nb++] = net::make_reply(id(), head);
  ++stats_.replies_direct;
  if (opt_.proxy_transfer && !L.req_queue.empty())
    bundle[nb++] = net::make_transfer(L.req_queue.front(), id(), head);
  send_to(head.site, bundle, nb, lock);
}

void CaoSinghalSite::send_proxy_update(LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  if (!L.lock.valid() || L.req_queue.empty()) return;
  const ReqId head = L.req_queue.front();
  Message bundle[2];
  size_t nb = 0;
  // D6: a stale forward can install a lock holder that the queue head
  // already outranks, with the in-flight superseding transfer lost. Restore
  // the invariant that such a holder has an inquire outstanding, or the
  // head could wait forever behind a blocked holder.
  if (head < L.lock && !L.inquired_this_tenure) {
    L.inquired_this_tenure = true;
    bundle[nb++] = net::make_inquire(id(), L.lock);
  }
  if (opt_.proxy_transfer)
    bundle[nb++] = net::make_transfer(head, id(), L.lock);
  if (nb > 0) send_to(L.lock.site, bundle, nb, lock);
}

// A.4.
void CaoSinghalSite::handle_yield(const Message& m, LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  if (!L.lock.valid() || L.lock != m.req) {
    note_stale_drop(MsgType::kYield);
    return;
  }
  L.req_queue.insert(L.lock);  // the yielder still wants the CS
  grant_next_from_queue(lock);
}

// C at the arbiter (prose in §3.2; formal fragment in §6 case 3).
void CaoSinghalSite::handle_release(const Message& m, LockId lock) {
  Lk& L = lk_[static_cast<size_t>(lock)];
  if (!L.lock.valid() || L.lock != m.req) {
    // Not from our lock holder. A §6 recovery release for a queued (never
    // granted) request scrubs the queue; anything else is stale.
    auto it = L.req_queue.find(m.req);
    if (it == L.req_queue.end()) {
      note_stale_drop(MsgType::kRelease);
      return;
    }
    const bool was_head = it == L.req_queue.begin();
    L.req_queue.erase(it);
    if (was_head) send_proxy_update(lock);  // re-point the proxy
    return;
  }
  if (m.target.valid()) {
    // The holder forwarded our reply to m.target on our behalf.
    auto it = L.req_queue.find(m.target);
    if (it != L.req_queue.end()) {
      L.req_queue.erase(it);
      L.lock = m.target;
      L.inquired_this_tenure = false;
      send_proxy_update(lock);
      return;
    }
    // The forwarded-to request is gone (crashed site scrubbed by §6, or it
    // abandoned the request). The forwarded reply will be dropped as stale
    // at its receiver; grant the next waiter ourselves.
  }
  grant_next_from_queue(lock);
}

// ------------------------------------------------------ §6 fault tolerance

void CaoSinghalSite::handle_failure_notice(const Message& m) {
  if (!opt_.fault_tolerant) return;
  const SiteId f = m.arbiter;
  DQME_CHECK(0 <= f && f < net().size());
  if (!alive_[static_cast<size_t>(f)]) return;  // duplicate notice
  alive_[static_cast<size_t>(f)] = false;
  // One notice, every lock: the crash severs f's role in each lock's
  // arbitration independently.
  for (LockId l = 0; l < num_locks(); ++l) recover_lock(l, f);
}

void CaoSinghalSite::recover_lock(LockId lock, SiteId f) {
  Lk& L = lk_[static_cast<size_t>(lock)];

  // Arbiter side. Case 1: drop f's queued request, re-pointing the proxy
  // if it was the favourite. Case 3: if f held our permission, grant on.
  const auto it = std::find_if(L.req_queue.begin(), L.req_queue.end(),
                               [&](const ReqId& q) { return q.site == f; });
  if (it != L.req_queue.end()) {
    const bool was_head = it == L.req_queue.begin();
    L.req_queue.erase(it);
    if (was_head && L.lock.valid()) send_proxy_update(lock);
  }
  if (L.lock.valid() && L.lock.site == f) grant_next_from_queue(lock);

  // Requester side. Case 2: forwarding duties toward f are void.
  std::erase_if(L.tran_stack,
                [&](const TranEntry& e) { return e.target.site == f; });

  // If f arbitrates for us, the current attempt cannot complete: release
  // every claim this request holds and start over on a reconstructed
  // quorum (the paper's "releases all the resources it has gotten, and
  // executes the quorum construction algorithm to select another quorum").
  if (requesting(lock) &&
      std::find(L.req_set.begin(), L.req_set.end(), f) != L.req_set.end()) {
    ++stats_.recoveries;
    for (SiteId j : L.req_set) {
      if (j == f || !alive_[static_cast<size_t>(j)]) continue;
      net().send(id(), j, net::make_release(L.my_req, ReqId{}), lock);
    }
    L.voted.clear();
    L.inq_queue.clear();
    L.tran_stack.clear();
    auto q = qs(lock).quorum_for_alive(id(), alive_);
    if (!q) {
      stalled_ = true;
      L.my_req = ReqId{};
      abort_request(lock);
      return;
    }
    L.req_set = *q;
    begin_request(lock);
  }
}

// ------------------------------------------------------------- dispatcher

void CaoSinghalSite::on_message(const Message& m, LockId lock) {
  observe(lock, m.req.seq);
  switch (m.type) {
    case MsgType::kRequest:       handle_request(m, lock);  break;
    case MsgType::kReply:         handle_reply(m, lock);    break;
    case MsgType::kRelease:       handle_release(m, lock);  break;
    case MsgType::kInquire:       handle_inquire(m, lock);  break;
    case MsgType::kFail:          handle_fail(m, lock);     break;
    case MsgType::kYield:         handle_yield(m, lock);    break;
    case MsgType::kTransfer:      handle_transfer(m, lock); break;
    case MsgType::kFailureNotice: handle_failure_notice(m); break;
    default:
      DQME_CHECK_MSG(false, "cao-singhal: unexpected " << m);
  }
}

void CaoSinghalSite::debug_dump(std::ostream& os, LockId lock) const {
  const Lk& L = lk_[static_cast<size_t>(lock)];
  os << "site " << id() << " state="
     << (idle(lock) ? "idle" : requesting(lock) ? "requesting" : "in_cs")
     << " my_req=" << L.my_req << " failed=" << L.failed;
  os << " voted={";
  for (size_t i = 0; i < L.voted.size(); ++i)
    os << L.req_set[i] << ':' << L.voted.test(i) << ' ';
  os << "} inq_q={";
  for (SiteId a : L.inq_queue) os << a << ' ';
  os << "} tran_stack={";
  for (const auto& e : L.tran_stack) os << e.target << "@" << e.arbiter << ' ';
  os << "} | arbiter lock=" << L.lock << " queue={";
  for (const auto& r : L.req_queue) os << r << ' ';
  os << "} inquired=" << L.inquired_this_tenure << '\n';
}

void CaoSinghalSite::copy_protocol_state(const mutex::MutexSite& other) {
  // Options, quorums and the exit scratch are configuration and capacity,
  // not run state.
  const auto& o = static_cast<const CaoSinghalSite&>(other);
  lk_ = o.lk_;
  alive_ = o.alive_;
  stalled_ = o.stalled_;
  case_stats_ = o.case_stats_;
  stats_ = o.stats_;
}

}  // namespace dqme::core
