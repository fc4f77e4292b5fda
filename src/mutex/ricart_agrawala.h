// Ricart-Agrawala mutual exclusion [13] (paper §1): Lamport's algorithm
// with release merged into deferred replies — 2(N-1) messages per CS,
// synchronization delay T. Each lock in the table runs an independent copy
// of the protocol.
#pragma once

#include "mutex/mutex_site.h"

namespace dqme::mutex {

class RicartAgrawalaSite final : public MutexSite {
 public:
  RicartAgrawalaSite(SiteId id, net::Executor& net, LockId num_locks = 1);

  void on_message(const net::Message& m, LockId lock) override;

 private:
  // Per-lock protocol state, indexed by dense LockId.
  struct Lk {
    ReqId my_req;
    int pending_replies = 0;
    std::vector<SiteId> deferred;  // requesters we owe a reply at exit
  };

  void do_request(LockId lock) override;
  void do_release(LockId lock) override;
  void copy_protocol_state(const MutexSite& other) override;

  std::vector<Lk> lk_;
};

}  // namespace dqme::mutex
