// Lamport's timestamp-ordered mutual exclusion [6] (paper §1).
//
// Every site keeps a replica of the global request queue. To enter, a site
// broadcasts request, waits for a reply from everyone (proof their clock
// passed its timestamp), and enters when its request heads its local queue.
// Exactly 3(N-1) messages per CS; synchronization delay T. Each lock in
// the table runs an independent copy of the protocol (its own queue,
// replies, and Lamport clock).
#pragma once

#include <set>

#include "mutex/mutex_site.h"

namespace dqme::mutex {

class LamportSite final : public MutexSite {
 public:
  LamportSite(SiteId id, net::Executor& net, LockId num_locks = 1);

  void on_message(const net::Message& m, LockId lock) override;

 private:
  // Per-lock protocol state, indexed by dense LockId.
  struct Lk {
    ReqId my_req;
    std::set<ReqId> queue;       // replicated request queue (priority order)
    std::vector<bool> replied;   // reply received from each other site
    int replies_needed = 0;
  };

  void do_request(LockId lock) override;
  void do_release(LockId lock) override;
  void copy_protocol_state(const MutexSite& other) override;
  void try_enter(LockId lock);

  std::vector<Lk> lk_;
};

}  // namespace dqme::mutex
