// Raymond's tree-based token algorithm [12] (paper §1, Table 1).
//
// Sites form a static (logical) tree; the token lives at one site and every
// other site's `holder` points toward it. Requests travel up the holder
// chain (O(log N) messages on a balanced tree) and the token flows back.
// Average message cost O(log N) but the delay is also O(log N) hops — the
// "long delay" class of algorithms the paper contrasts itself against.
// Each lock in the table has its own token flowing over the shared tree.
#pragma once

#include <deque>

#include "mutex/mutex_site.h"

namespace dqme::mutex {

class RaymondSite final : public MutexSite {
 public:
  // The tree is a complete binary tree over site ids (parent(i) = (i-1)/2);
  // site 0 starts with every lock's token.
  RaymondSite(SiteId id, net::Executor& net, LockId num_locks = 1);

  void on_message(const net::Message& m, LockId lock) override;

  bool holds_token(LockId lock = kLock0) const {
    return lk_[static_cast<size_t>(lock)].holder == id();
  }

 private:
  // Per-lock protocol state, indexed by dense LockId.
  struct Lk {
    SiteId holder = kNoSite;  // neighbour in the token's direction, or self
    bool asked = false;       // sent a request toward holder already
    SeqNum seq = 0;           // local request counter (span ids only)
    std::deque<SiteId> request_q;  // neighbours (or self) waiting for token
  };

  void do_request(LockId lock) override;
  void do_release(LockId lock) override;
  void copy_protocol_state(const MutexSite& other) override;

  // Raymond's two core procedures.
  void assign_privilege(LockId lock);
  void make_request(LockId lock);

  SiteId parent_;  // tree edge, shared by every lock
  std::vector<Lk> lk_;
};

}  // namespace dqme::mutex
