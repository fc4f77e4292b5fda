// Construction of protocol sites by algorithm name, used by the harness,
// benches, and examples.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mutex/mutex_site.h"
#include "quorum/quorum_system.h"

namespace dqme::mutex {

enum class Algo {
  kLamport,
  kRicartAgrawala,
  kRoucairolCarvalho,
  kMaekawa,
  kRaymond,
  kSuzukiKasami,
  kCaoSinghal,         // the paper's algorithm (src/core)
  kCaoSinghalNoProxy,  // E9 ablation: transfer/proxy path disabled -> 2T
};

// Per-site protocol options (E9 ablations and the sharded lock table).
struct AlgoOptions {
  bool piggyback = true;       // piggyback inquire+transfer / reply+transfer
  bool fault_tolerant = false; // enable the §6 recovery layer (Cao-Singhal)
  // Lock-table size. Dense-id contract: every site arbitrates exactly
  // num_locks independent lock objects addressed by LockId 0..num_locks-1
  // (no gaps — LockIds index per-lock state tables directly). make_site
  // rejects num_locks < 1.
  LockId num_locks = 1;
  // Per-lock quorum construction for the quorum algorithms: returns the
  // quorum system arbitrating a given lock (must outlive the sites), or
  // nullptr to fall back to make_site's `quorums` argument. Unset = all
  // locks share `quorums`. Ignored by the non-quorum baselines.
  std::function<const quorum::QuorumSystem*(LockId)> quorum_for_lock;
};

std::string_view to_string(Algo a);
Algo algo_from_string(const std::string& name);
std::vector<Algo> all_algos();
bool algo_uses_quorum(Algo a);

// Creates one protocol endpoint. `quorums` may be null for the non-quorum
// baselines and must outlive the site otherwise.
std::unique_ptr<MutexSite> make_site(Algo algo, SiteId id, net::Executor& net,
                                     const quorum::QuorumSystem* quorums,
                                     const AlgoOptions& options = {});

}  // namespace dqme::mutex
