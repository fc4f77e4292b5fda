// Carvalho-Roucairol dynamic-authorization mutual exclusion — the
// "dynamic algorithm" of the paper's §1 survey: between 0 and 2(N-1)
// messages per CS (averaging ~N-1 at light load), synchronization delay T.
//
// Ricart-Agrawala with memory: each pair of sites shares one
// *authorization token*; a site that received your reply keeps your
// standing permission until YOU next request. A site enters the CS when it
// holds the token of every peer, so repeated requests by the same site
// cost zero messages, and the worst case (a request having to collect and
// defend every token) costs a request + reply per peer. Each lock in the
// table has its own independent set of pairwise tokens.
#pragma once

#include "mutex/mutex_site.h"

namespace dqme::mutex {

class RoucairolCarvalhoSite final : public MutexSite {
 public:
  RoucairolCarvalhoSite(SiteId id, net::Executor& net, LockId num_locks = 1);

  void on_message(const net::Message& m, LockId lock) override;

  // Whether this site currently holds peer `j`'s authorization for `lock`.
  bool holds_authorization(SiteId j, LockId lock = kLock0) const {
    return lk_[static_cast<size_t>(lock)].has_auth[static_cast<size_t>(j)];
  }

 private:
  // Per-lock protocol state, indexed by dense LockId.
  struct Lk {
    ReqId my_req;
    std::vector<bool> has_auth;  // pairwise token: exactly one side holds it
    std::vector<bool> deferred;  // owed a reply at exit
    int missing = 0;             // tokens still needed for current request
  };

  void do_request(LockId lock) override;
  void do_release(LockId lock) override;
  void copy_protocol_state(const MutexSite& other) override;
  void pass_token(LockId lock, SiteId to);

  std::vector<Lk> lk_;
};

}  // namespace dqme::mutex
