// Suzuki-Kasami broadcast token algorithm (paper §1's token-based class).
//
// A requester broadcasts its request number; the token carries, per site,
// the number of its last served request plus a FIFO queue of waiting sites.
// 0 messages when the requester already holds the token, otherwise N: N-1
// request broadcasts plus one token transfer. Synchronization delay T.
// Each lock in the table has its own token (site 0 starts with all of
// them) and its own request-number table.
#pragma once

#include "mutex/mutex_site.h"

namespace dqme::mutex {

class SuzukiKasamiSite final : public MutexSite {
 public:
  // Site 0 starts with every lock's token.
  SuzukiKasamiSite(SiteId id, net::Executor& net, LockId num_locks = 1);

  void on_message(const net::Message& m, LockId lock) override;

  bool holds_token(LockId lock = kLock0) const {
    return lk_[static_cast<size_t>(lock)].has_token;
  }

 private:
  // Per-lock protocol state, indexed by dense LockId.
  struct Lk {
    std::vector<SeqNum> rn;  // highest request number seen per site
    // Token state, held by value: a transfer moves it into a network side-
    // payload slot and the receiver moves it back out (take_token), so the
    // ln/queue allocations travel with the token instead of being
    // refcounted.
    net::TokenPayload token;
    bool has_token = false;
  };

  void do_request(LockId lock) override;
  void do_release(LockId lock) override;
  void copy_protocol_state(const MutexSite& other) override;
  void pass_token_if_due(LockId lock);
  void send_token(LockId lock, SiteId to);

  std::vector<Lk> lk_;
};

}  // namespace dqme::mutex
