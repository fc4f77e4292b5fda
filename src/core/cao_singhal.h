// The paper's contribution (§3): delay-optimal quorum-based mutual
// exclusion.
//
// Where Maekawa's exiting site releases its arbiters (one hop) which then
// reply to the next entrant (second hop — 2T), here each arbiter that sees
// a waiting request sends the current permission holder a `transfer`. The
// holder, on exiting the CS, forwards the arbiter's `reply` DIRECTLY to the
// next entrant (one hop — T) and tells the arbiter what it did through a
// parameterized `release(i, j | max)`.
//
// Message vocabulary and data structures follow §3.1 exactly:
//   lock        — the request currently holding this arbiter's permission
//   req_queue   — waiting requests, priority-ordered (Lamport timestamps)
//   replied[]   — per-arbiter "I hold its permission" flags (voted here)
//   failed      — set by a fail received or a yield sent
//   inq_queue   — inquires that arrived before the matching reply (replies
//                 may come through a proxy channel, so FIFO alone cannot
//                 order them — the situation §3 calls out)
//   tran_stack  — transfer obligations; only the latest per arbiter is
//                 honoured at exit ("deletes the following entries ... from
//                 the same sender")
//
// Sharded lock service: every one of those structures lives in a per-lock
// table (dense LockId index), so one site arbitrates num_locks independent
// critical sections over a shared network endpoint; only liveness of the
// peer set (§6 alive_) and the stats are site-level.
//
// Reconstruction deviations from the (OCR-garbled) pseudocode are D1-D7 in
// DESIGN.md. The §6 fault-tolerance layer is enabled with
// AlgoOptions::fault_tolerant and a failure-adaptive quorum construction.
#pragma once

#include "mutex/factory.h"
#include "mutex/flat_state.h"
#include "mutex/mutex_site.h"
#include "quorum/quorum_system.h"

namespace dqme::core {

struct CaoSinghalOptions {
  bool proxy_transfer = true;   // false: E9 ablation — behaves Maekawa-like
  bool piggyback = true;        // false: E9 ablation — bundles sent singly
  bool fault_tolerant = false;  // §6 recovery layer
  LockId num_locks = 1;         // lock-table size (dense LockIds 0..M-1)
  // Per-lock quorum construction (must outlive the site); locks it returns
  // nullptr for — and all locks when unset — use the constructor's
  // `quorums` argument.
  std::function<const quorum::QuorumSystem*(LockId)> quorum_for_lock;
};

class CaoSinghalSite final : public mutex::MutexSite {
 public:
  using Options = CaoSinghalOptions;

  // Arbiter-side classification of §5.2's heavy-load cases, for E8.
  struct CaseStats {
    uint64_t grant_free = 0;  // lock was (max,max): immediate reply
    uint64_t c1_empty_higher = 0;    // queue empty, r beats lock
    uint64_t c2_empty_lower = 0;     // queue empty, lock beats r
    uint64_t c3_fail_newcomer = 0;   // r worse than head
    uint64_t c4_displace_head = 0;   // r < head < lock
    uint64_t c5_beats_lock = 0;      // r < lock < head
    uint64_t c6_between = 0;         // lock < r < head
    uint64_t total() const {
      return grant_free + c1_empty_higher + c2_empty_lower +
             c3_fail_newcomer + c4_displace_head + c5_beats_lock + c6_between;
    }
  };

  struct ProtocolStats {
    uint64_t yields_sent = 0;
    uint64_t inquires_deferred = 0;  // inquire queued awaiting its reply
    uint64_t transfers_accepted = 0; // pushed onto tran_stack
    uint64_t transfers_ignored = 0;  // outdated transfer discarded (A.5)
    uint64_t replies_forwarded = 0;  // replies sent on behalf of arbiters
    uint64_t replies_direct = 0;     // replies sent as ourselves (arbiter)
    uint64_t recoveries = 0;         // §6 quorum reconstructions
  };

  CaoSinghalSite(SiteId id, net::Executor& net,
                 const quorum::QuorumSystem& quorums,
                 Options options = Options());

  void on_message(const net::Message& m, LockId lock) override;

  const std::vector<SiteId>& req_set(LockId lock = kLock0) const {
    return lk_[static_cast<size_t>(lock)].req_set;
  }
  const CaseStats& case_stats() const { return case_stats_; }
  const ProtocolStats& protocol_stats() const { return stats_; }
  bool stalled() const { return stalled_; }
  bool failed_flag(LockId lock = kLock0) const {
    return lk_[static_cast<size_t>(lock)].failed;
  }

  // One-line state dump for debugging and tests.
  void debug_dump(std::ostream& os, LockId lock = kLock0) const;

 private:
  struct TranEntry {
    ReqId target;
    SiteId arbiter;
  };

  // Per-lock protocol state (§3.1's variables), indexed by dense LockId.
  struct Lk {
    // Requester state (per current request).
    ReqId my_req;
    std::vector<SiteId> req_set;
    mutex::VoteMap voted;  // replied[arbiter], dense over req_set
    bool failed = false;
    std::vector<SiteId> inq_queue;
    std::vector<TranEntry> tran_stack;  // back() is the top of the stack

    // Arbiter state.
    ReqId lock;
    mutex::ReqQueue req_queue;
    // Whether an inquire was sent to the current lock holder during this
    // tenure. One suffices: the holder's answer (yield or release) always
    // serves the *best* waiter at that moment.
    bool inquired_this_tenure = false;
  };

  void do_request(LockId lock) override;
  void do_release(LockId lock) override;
  void copy_protocol_state(const mutex::MutexSite& other) override;
  void begin_request(LockId lock);

  // --- Requester-side handlers (A.3, A.5, A.6, A.7) ---
  void handle_reply(const net::Message& m, LockId lock);
  void handle_inquire(const net::Message& m, LockId lock);
  void handle_fail(const net::Message& m, LockId lock);
  void handle_transfer(const net::Message& m, LockId lock);
  void process_inquire(LockId lock, SiteId arbiter);  // the body of A.3
  void drain_inquire_queue(LockId lock);   // A.6/A.7 re-processing
  void try_enter(LockId lock);             // step B

  // --- Arbiter-side handlers (A.2, A.4, C at the arbiter) ---
  void handle_request(const net::Message& m, LockId lock);
  void handle_yield(const net::Message& m, LockId lock);
  void handle_release(const net::Message& m, LockId lock);
  // Grants the queue head (reply piggybacked with a transfer for the next
  // head, per A.4 / §6 case 3); clears the lock if the queue is empty.
  void grant_next_from_queue(LockId lock);
  // Re-points the proxy at the new queue head after the head changed, and
  // (D6) restores the "head outranks lock => inquire outstanding" liveness
  // invariant if a stale forward broke it.
  void send_proxy_update(LockId lock);

  // --- §6 fault tolerance ---
  void handle_failure_notice(const net::Message& m);
  void recover_lock(LockId lock, SiteId failed_site);

  // Quorum system arbitrating `lock`.
  const quorum::QuorumSystem& qs(LockId lock) const;

  // Sends `msgs` to `dst` as one wire message (or singly when the
  // piggybacking ablation is on). Callers keep small bundles in stack
  // buffers; nothing on this path touches the heap.
  void send_to(SiteId dst, const net::Message* msgs, size_t n, LockId lock);

  Options opt_;
  const quorum::QuorumSystem& quorums_;

  std::vector<Lk> lk_;

  // Exit-protocol scratch (do_release): capacity survives across CS
  // tenures (and is shared by every lock — exits are serial within one
  // simulator event) so the exit fan-out allocates nothing in steady state.
  std::vector<TranEntry> fwd_scratch_;     // newest transfer per arbiter
  std::vector<SiteId> dst_scratch_;        // exit-bound destinations
  std::vector<net::Message> out_scratch_;  // one destination's bundle

  // Fault tolerance (site-level: a crash affects every lock).
  std::vector<bool> alive_;
  bool stalled_ = false;

  CaseStats case_stats_;
  ProtocolStats stats_;
};

}  // namespace dqme::core
