// One algorithm deployed over one executor: the quorum system and the N
// protocol sites, built and attached the same way on every backend — the
// simulator's Network, rt::Runtime, or a verify::World's controlled
// Network. run_experiment, rt::run_free, the rt oracle, verify::World and
// the scenario tools all assemble their stacks here, so every algorithm is
// built and driven the same way before any comparison.
//
// Interposers (verify::World's mutation taps, rt::DecisionLog) re-attach
// themselves after construction; attach overwrites, so they need no hook
// here. The failure detector, checker and observers stay with the caller:
// only the caller knows which of them its run wants.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/cao_singhal.h"
#include "mutex/factory.h"
#include "obs/invariants.h"
#include "quorum/quorum_system.h"

namespace dqme::harness {

class Deployment {
 public:
  // `quorum` names the quorum construction (quorum/factory.h); it is built
  // only for the quorum algorithms, which need it.
  Deployment(mutex::Algo algo, int n, const std::string& quorum,
             const mutex::AlgoOptions& options, net::Executor& exec);

  // Null for the non-quorum baselines.
  const quorum::QuorumSystem* quorums() const { return quorums_.get(); }

  mutex::MutexSite& site(SiteId id) const {
    return *sites_[static_cast<size_t>(id)];
  }
  const std::vector<mutex::MutexSite*>& sites() const { return sites_; }

  // Checker options for this algorithm: the per-arbiter permission ledger
  // applies to the quorum algorithms only.
  obs::InvariantOptions invariant_options(Time liveness_bound) const {
    obs::InvariantOptions o;
    o.liveness_bound = liveness_bound;
    o.quorum_arbitration = mutex::algo_uses_quorum(algo_);
    return o;
  }

  // Per-site counters summed over the deployment. The Cao-Singhal case
  // and protocol stats stay zero for the other algorithms.
  struct Totals {
    uint64_t cs_entries = 0;
    uint64_t stale_drops = 0;
    core::CaoSinghalSite::CaseStats case_stats;
    core::CaoSinghalSite::ProtocolStats protocol_stats;
  };
  Totals totals() const;

 private:
  mutex::Algo algo_;
  std::unique_ptr<quorum::QuorumSystem> quorums_;
  std::vector<std::unique_ptr<mutex::MutexSite>> owned_;
  std::vector<mutex::MutexSite*> sites_;
};

}  // namespace dqme::harness
