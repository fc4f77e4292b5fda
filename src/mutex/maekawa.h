// Maekawa's quorum-based mutual exclusion [8] (paper §1) — the head-to-head
// baseline. Each site locks only its quorum; deadlocks among crossing
// quorums are resolved with inquire/fail/yield. 3(K-1) messages per CS at
// light load, up to 5(K-1) at heavy load, and synchronization delay 2T: an
// exiting site must release its arbiters, which then reply to the next
// requester — two serial message hops. Each lock in the table runs an
// independent copy of the protocol, optionally over a per-lock quorum
// construction (quorum_for_lock).
#pragma once

#include "mutex/flat_state.h"
#include "mutex/mutex_site.h"
#include "quorum/quorum_system.h"

namespace dqme::mutex {

class MaekawaSite final : public MutexSite {
 public:
  // `quorum_for_lock`, when set, names the quorum system arbitrating each
  // lock (must outlive the site); locks it returns nullptr for — and all
  // locks when it is unset — use `quorums`.
  MaekawaSite(SiteId id, net::Executor& net,
              const quorum::QuorumSystem& quorums, LockId num_locks = 1,
              std::function<const quorum::QuorumSystem*(LockId)>
                  quorum_for_lock = {});

  void on_message(const net::Message& m, LockId lock) override;

  const std::vector<SiteId>& req_set(LockId lock = kLock0) const {
    return lk_[static_cast<size_t>(lock)].req_set;
  }

 private:
  // Per-lock protocol state, indexed by dense LockId.
  struct Lk {
    // --- Requester state (current request) ---
    ReqId my_req;
    std::vector<SiteId> req_set;
    VoteMap voted;  // has each arbiter's lock, dense over req_set
    bool failed = false;
    std::vector<SiteId> pending_inquires;  // deferred until fail/entry known

    // --- Arbiter state ---
    ReqId lock;           // request currently holding this arbiter
    ReqQueue req_queue;   // waiting requests, priority-ordered
    bool inquire_outstanding = false;
  };

  void do_request(LockId lock) override;
  void do_release(LockId lock) override;
  void copy_protocol_state(const MutexSite& other) override;

  // Requester side.
  void handle_reply(const net::Message& m, LockId lock);
  void handle_fail(const net::Message& m, LockId lock);
  void handle_inquire(const net::Message& m, LockId lock);
  void answer_inquire(LockId lock, SiteId arbiter);
  void try_enter(LockId lock);

  // Arbiter side.
  void handle_request(const net::Message& m, LockId lock);
  void handle_yield(const net::Message& m, LockId lock);
  void handle_release(const net::Message& m, LockId lock);
  void grant(LockId lock, const ReqId& r);
  void grant_next_from_queue(LockId lock);

  std::vector<Lk> lk_;
};

}  // namespace dqme::mutex
