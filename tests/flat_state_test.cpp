// Equivalence tests for the flat protocol-state containers
// (mutex/flat_state.h): VoteMap, read through its owner's req_set, must
// behave exactly like the std::map<SiteId,bool> it replaced (including
// across §6 quorum re-formation, where the member set changes
// mid-request), and ReqQueue must behave exactly like std::set<ReqId> —
// same priority order, same head identity, same scrub semantics.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "mutex/flat_state.h"

namespace dqme::mutex {
namespace {

// ------------------------------------------------------------------ VoteMap

// Reference model: the protocols' old representation.
using VoteModel = std::map<SiteId, bool>;

// VoteMap keeps grant bits only; `quorum` is the owner's req_set, the
// member list the positions index.
void expect_equivalent(const VoteMap& flat, const std::vector<SiteId>& quorum,
                       const VoteModel& model) {
  ASSERT_EQ(flat.size(), model.size());
  for (const auto& [site, has] : model) {
    const int pos = flat.find(quorum, site);
    ASSERT_GE(pos, 0) << "member " << site << " missing from VoteMap";
    EXPECT_EQ(quorum[static_cast<size_t>(pos)], site);
    EXPECT_EQ(flat.test(static_cast<size_t>(pos)), has);
  }
  bool model_all = true;
  for (const auto& [site, has] : model) model_all = model_all && has;
  EXPECT_EQ(flat.all(), model_all);
}

TEST(VoteMap, MatchesMapSemantics) {
  VoteMap flat;
  const std::vector<SiteId> quorum = {2, 5, 7, 11};
  flat.assign(quorum.size());
  VoteModel model;
  for (SiteId j : quorum) model[j] = false;
  expect_equivalent(flat, quorum, model);
  EXPECT_FALSE(flat.all());

  // Grant two, revoke one (the yield path), grant the rest.
  flat.grant(static_cast<size_t>(flat.find(quorum, 5)));
  model[5] = true;
  flat.grant(static_cast<size_t>(flat.find(quorum, 11)));
  model[11] = true;
  expect_equivalent(flat, quorum, model);

  flat.revoke(static_cast<size_t>(flat.find(quorum, 5)));
  model[5] = false;
  expect_equivalent(flat, quorum, model);
  EXPECT_FALSE(flat.all());

  for (SiteId j : quorum) {
    flat.grant(static_cast<size_t>(flat.find(quorum, j)));
    model[j] = true;
  }
  expect_equivalent(flat, quorum, model);
  EXPECT_TRUE(flat.all());

  EXPECT_EQ(flat.find(quorum, 3), -1);  // non-member
}

TEST(VoteMap, GrantAndRevokeAreIdempotent) {
  VoteMap flat;
  const std::vector<SiteId> quorum = {1, 2};
  flat.assign(quorum.size());
  const auto p = static_cast<size_t>(flat.find(quorum, 1));
  flat.grant(p);
  flat.grant(p);  // double grant must not double-count
  flat.revoke(p);
  EXPECT_FALSE(flat.all());
  flat.revoke(p);  // double revoke must not underflow
  flat.grant(p);
  flat.grant(static_cast<size_t>(flat.find(quorum, 2)));
  EXPECT_TRUE(flat.all());
}

// The §6 path: after a crash the requester re-forms its quorum and
// restarts the request — assign() with the new quorum's size, looked up
// through the new req_set, must resize and remap positions, with no vote
// state leaking from the old quorum.
TEST(VoteMap, ReassignRemapsAfterQuorumReFormation) {
  VoteMap flat;
  std::vector<SiteId> req_set = {0, 3, 4, 8};
  flat.assign(req_set.size());
  for (SiteId j : {0, 3, 4})
    flat.grant(static_cast<size_t>(flat.find(req_set, j)));
  EXPECT_FALSE(flat.all());

  // Site 4 crashed; the re-formed quorum drops it, keeps 0 and 8, and
  // adds 6 — different size, different positions.
  req_set = {0, 6, 8};
  flat.assign(req_set.size());
  VoteModel model;
  for (SiteId j : req_set) model[j] = false;
  expect_equivalent(flat, req_set, model);  // no stale grants survive
  EXPECT_EQ(flat.find(req_set, 4), -1);
  EXPECT_EQ(flat.find(req_set, 3), -1);

  for (SiteId j : req_set)
    flat.grant(static_cast<size_t>(flat.find(req_set, j)));
  EXPECT_TRUE(flat.all());
}

// A lookup through a member list the map was not assigned for is a
// protocol bug (req_set and the grants fell out of step), not a miss.
TEST(VoteMap, FindRejectsAMismatchedMemberList) {
  VoteMap flat;
  flat.assign(3);
  const std::vector<SiteId> other = {1, 2};
  EXPECT_THROW(flat.find(other, 1), CheckError);
}

TEST(VoteMap, RandomizedEquivalenceAgainstMap) {
  Rng rng(1234);
  VoteMap flat;  // one map across rounds, as a (site, lock) keeps it
  for (int round = 0; round < 50; ++round) {
    // Random quorum of 3-9 distinct sites out of 0..19; every fifth round
    // re-forms mid-request (§6) by dropping a member and adding another.
    std::vector<SiteId> pool(20);
    for (SiteId i = 0; i < 20; ++i) pool[static_cast<size_t>(i)] = i;
    rng.shuffle(pool);
    const size_t k = static_cast<size_t>(rng.uniform_int(3, 9));
    std::vector<SiteId> req_set(pool.begin(),
                                pool.begin() + static_cast<int64_t>(k));

    flat.assign(req_set.size());
    VoteModel model;
    for (SiteId j : req_set) model[j] = false;

    for (int op = 0; op < 40; ++op) {
      if (round % 5 == 0 && op == 20) {
        req_set.erase(req_set.begin());
        req_set.push_back(pool[k]);
        flat.assign(req_set.size());
        model.clear();
        for (SiteId j : req_set) model[j] = false;
        expect_equivalent(flat, req_set, model);
      }
      const SiteId j = req_set[static_cast<size_t>(rng.uniform_int(
          0, static_cast<int64_t>(req_set.size()) - 1))];
      const auto pos = static_cast<size_t>(flat.find(req_set, j));
      if (rng.bernoulli(0.6)) {
        flat.grant(pos);
        model[j] = true;
      } else {
        flat.revoke(pos);
        model[j] = false;
      }
      expect_equivalent(flat, req_set, model);
    }
  }
}

// ------------------------------------------------------------------ ReqQueue

using QueueModel = std::set<ReqId>;

void expect_equivalent(const ReqQueue& flat, const QueueModel& model) {
  ASSERT_EQ(flat.size(), model.size());
  // Iteration order — the priority order the arbiters act on — must match
  // the set's exactly.
  auto fit = flat.begin();
  for (const ReqId& r : model) {
    EXPECT_EQ(*fit, r);
    ++fit;
  }
  if (!model.empty()) {
    EXPECT_EQ(flat.front(), *model.begin());
  }
}

TEST(ReqQueue, PriorityOrderMatchesSet) {
  ReqQueue flat;
  QueueModel model;
  // Lamport order: seq first, site breaks ties — lower is higher priority.
  const std::vector<ReqId> reqs = {
      {5, 2}, {3, 7}, {5, 1}, {9, 0}, {3, 8}, {1, 4},
  };
  for (const ReqId& r : reqs) {
    flat.insert(r);
    model.insert(r);
    expect_equivalent(flat, model);
  }
  EXPECT_EQ(flat.front(), (ReqId{1, 4}));  // smallest timestamp wins

  // Duplicate insert is a no-op, like std::set.
  flat.insert({5, 2});
  model.insert({5, 2});
  expect_equivalent(flat, model);
}

TEST(ReqQueue, FindEraseAndHeadIdentity) {
  ReqQueue flat;
  for (const ReqId& r : {ReqId{2, 0}, ReqId{4, 1}, ReqId{6, 2}}) flat.insert(r);

  // was_head test used by handle_release's §6 scrub path.
  auto it = flat.find({2, 0});
  ASSERT_NE(it, flat.end());
  EXPECT_EQ(it, flat.begin());
  flat.erase(it);
  EXPECT_EQ(flat.front(), (ReqId{4, 1}));

  it = flat.find({6, 2});
  ASSERT_NE(it, flat.end());
  EXPECT_NE(it, flat.begin());
  flat.erase(it);
  EXPECT_EQ(flat.size(), 1u);
  EXPECT_EQ(flat.find({9, 9}), flat.end());

  flat.pop_front();
  EXPECT_TRUE(flat.empty());
}

TEST(ReqQueue, EraseIfMatchesSetSemantics) {
  // The supersede-by-site scrub in handle_request / handle_failure_notice.
  ReqQueue flat;
  QueueModel model;
  for (const ReqId& r :
       {ReqId{1, 3}, ReqId{2, 5}, ReqId{3, 3}, ReqId{4, 8}, ReqId{5, 3}}) {
    flat.insert(r);
    model.insert(r);
  }
  const auto by_site_3 = [](const ReqId& q) { return q.site == 3; };
  const size_t removed = flat.erase_if(by_site_3);
  std::erase_if(model, by_site_3);
  EXPECT_EQ(removed, 3u);
  expect_equivalent(flat, model);
}

// Lamport's replicated queue removes by key (its own request at release, a
// peer's on its release message), present or not, as std::set::erase did.
TEST(ReqQueue, EraseByKeyMatchesSet) {
  Rng rng(7);
  ReqQueue flat;
  QueueModel model;
  for (int op = 0; op < 1000; ++op) {
    const ReqId r{static_cast<SeqNum>(rng.uniform_int(1, 8)),
                  static_cast<SiteId>(rng.uniform_int(0, 4))};
    if (rng.bernoulli(0.5)) {
      flat.insert(r);
      model.insert(r);
    } else {
      flat.erase(r);
      model.erase(r);
    }
    expect_equivalent(flat, model);
  }
}

TEST(ReqQueue, RandomizedEquivalenceAgainstSet) {
  Rng rng(99);
  ReqQueue flat;
  QueueModel model;
  for (int op = 0; op < 2000; ++op) {
    const ReqId r{static_cast<SeqNum>(rng.uniform_int(1, 12)),
                  static_cast<SiteId>(rng.uniform_int(0, 9))};
    const int kind = static_cast<int>(rng.uniform_int(0, 3));
    if (kind == 0 || model.empty()) {
      flat.insert(r);
      model.insert(r);
    } else if (kind == 1) {
      auto fit = flat.find(r);
      auto mit = model.find(r);
      ASSERT_EQ(fit != flat.end(), mit != model.end());
      if (fit != flat.end()) {
        EXPECT_EQ(fit == flat.begin(), mit == model.begin());
        flat.erase(fit);
        model.erase(mit);
      }
    } else if (kind == 2) {
      flat.pop_front();
      model.erase(model.begin());
    } else {
      const SiteId s = r.site;
      const auto pred = [s](const ReqId& q) { return q.site == s; };
      EXPECT_EQ(flat.erase_if(pred), std::erase_if(model, pred));
    }
    expect_equivalent(flat, model);
  }
}

}  // namespace
}  // namespace dqme::mutex
