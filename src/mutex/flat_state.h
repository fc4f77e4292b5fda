// Flat per-request protocol state for the permission-based algorithms.
//
// A requester tracks K ~ sqrt(N) arbiters and an arbiter (or a Lamport
// replica) queues a handful of waiting requests; at those sizes node-based
// containers (std::map<SiteId,bool>, std::set<ReqId>) are pure overhead —
// one heap allocation per key, pointer-chasing on every lookup, and a full
// tree teardown per request. VoteMap and ReqQueue keep the exact semantics
// the protocols relied on (membership checks, priority order, head
// identity) in contiguous storage whose capacity survives across requests,
// so the steady-state hot path performs no allocation
// (tests/alloc_test.cpp counts it). VoteMap holds grant bits only: the
// quorum list stays in the owner's req_set, one copy per (site, lock).
// Equivalence with the node-based originals is asserted in
// tests/flat_state_test.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/timestamp.h"
#include "common/types.h"

namespace dqme::mutex {

// replied[] of paper §3.1: which members of the current request's quorum
// have granted their permission. Grants are stored by dense position in
// the owner's req_set, the quorum the request went to; the member ids are
// not copied, so a (site, lock) keeps one quorum list, and find() scans
// the owner's K contiguous ids, which beats a map walk at any realistic
// quorum size.
class VoteMap {
 public:
  // Starts a request over a quorum of `k` members, none granted. Capacity
  // is retained across requests; §6 recovery re-assigns with the re-formed
  // quorum's size and the positions remap with its req_set.
  void assign(size_t k) {
    granted_.assign(k, 0);
    count_ = 0;
  }

  void clear() {
    granted_.clear();
    count_ = 0;
  }

  size_t size() const { return granted_.size(); }

  // Dense position of `arbiter` in `members` — the req_set this map was
  // assigned for — or -1 when it is not a quorum member.
  int find(const std::vector<SiteId>& members, SiteId arbiter) const {
    DQME_CHECK(members.size() == granted_.size());
    for (size_t i = 0; i < members.size(); ++i)
      if (members[i] == arbiter) return static_cast<int>(i);
    return -1;
  }

  bool test(size_t pos) const { return granted_[pos] != 0; }

  void grant(size_t pos) {
    if (granted_[pos] == 0) {
      granted_[pos] = 1;
      ++count_;
    }
  }

  void revoke(size_t pos) {
    if (granted_[pos] != 0) {
      granted_[pos] = 0;
      --count_;
    }
  }

  // True when every member has granted (trivially true when empty, like
  // iterating an empty map).
  bool all() const { return count_ == granted_.size(); }

 private:
  std::vector<uint8_t> granted_;
  size_t count_ = 0;
};

// req_queue of paper §3.1: waiting requests in priority order (smallest
// ReqId = highest priority, Lamport order). A sorted vector iterates in
// exactly the order std::set<ReqId> did, so head identity, was-head checks,
// and scrub scans are drop-in; inserts memmove a few 16-byte elements
// instead of rebalancing a tree.
class ReqQueue {
 public:
  using const_iterator = const ReqId*;

  const_iterator begin() const { return v_.data(); }
  const_iterator end() const { return v_.data() + v_.size(); }
  bool empty() const { return v_.empty(); }
  size_t size() const { return v_.size(); }

  // Highest-priority waiter. Callers check empty() first, as with
  // *set::begin().
  const ReqId& front() const {
    DQME_CHECK(!v_.empty());
    return v_.front();
  }

  // Set semantics: inserting a present element is a no-op.
  void insert(const ReqId& r) {
    auto it = std::lower_bound(v_.begin(), v_.end(), r);
    if (it != v_.end() && *it == r) return;
    v_.insert(it, r);
  }

  const_iterator find(const ReqId& r) const {
    auto it = std::lower_bound(v_.begin(), v_.end(), r);
    if (it != v_.end() && *it == r) return v_.data() + (it - v_.begin());
    return end();
  }

  void erase(const_iterator it) {
    DQME_CHECK(begin() <= it && it < end());
    v_.erase(v_.begin() + (it - begin()));
  }

  // Set semantics: erasing an absent element is a no-op.
  void erase(const ReqId& r) {
    const auto it = find(r);
    if (it != end()) erase(it);
  }

  void pop_front() {
    DQME_CHECK(!v_.empty());
    v_.erase(v_.begin());
  }

  template <typename Pred>
  size_t erase_if(Pred pred) {
    return std::erase_if(v_, pred);
  }

 private:
  std::vector<ReqId> v_;  // sorted ascending == priority order
};

}  // namespace dqme::mutex
