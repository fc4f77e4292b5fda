// Message-level protocol tests for CaoSinghalSite: each exercises one rule
// of §3.2's A/B/C steps or one documented deviation (DESIGN.md D1-D6),
// driving sites directly through the simulated network and, for
// adversarial cases, with hand-crafted messages.
#include <gtest/gtest.h>

#include "net/network.h"
#include "core/cao_singhal.h"
#include "net/trace.h"
#include "quorum/factory.h"

namespace dqme {
namespace {

using core::CaoSinghalSite;
using net::Message;
using net::MsgType;

struct Rig {
  explicit Rig(int n, const std::string& quorum = "grid", Time delay = 1000,
               CaoSinghalSite::Options options = CaoSinghalSite::Options())
      : net(sim, n, std::make_unique<net::ConstantDelay>(delay), 3),
        quorums(quorum::make_quorum_system(quorum, n)) {
    for (SiteId i = 0; i < n; ++i) {
      sites.push_back(
          std::make_unique<CaoSinghalSite>(i, net, *quorums, options));
      net.attach(i, sites.back().get());
      sites.back()->on_enter = [this, i](SiteId, LockId) {
        entries.push_back({i, sim.now()});
      };
    }
  }
  CaoSinghalSite& site(SiteId i) { return *sites[static_cast<size_t>(i)]; }
  void release(SiteId i) {
    site(i).release_cs(kLock0);
    exits.push_back({i, sim.now()});
  }

  struct Event {
    SiteId site;
    Time at;
  };
  sim::Simulator sim;
  net::Network net;
  std::unique_ptr<quorum::QuorumSystem> quorums;
  std::vector<std::unique_ptr<CaoSinghalSite>> sites;
  std::vector<Event> entries;
  std::vector<Event> exits;
};

// A.2 first branch + B: an unlocked arbiter grants immediately; the
// requester enters after one round trip.
TEST(CaoSinghalProtocol, UncontendedEntryTakesOneRoundTrip) {
  Rig rig(9);
  rig.site(4).request_cs(kLock0);
  rig.sim.run();
  ASSERT_EQ(rig.entries.size(), 1u);
  EXPECT_EQ(rig.entries[0].site, 4);
  EXPECT_EQ(rig.entries[0].at, 2000);  // request T + reply T
}

// THE paper mechanism: with a waiter queued, the exiting site's forwarded
// reply reaches the next entrant after exactly ONE message delay — not two.
TEST(CaoSinghalProtocol, HandoffIsExactlyOneMessageDelay) {
  Rig rig(9);
  rig.site(0).request_cs(kLock0);
  rig.sim.run();
  ASSERT_EQ(rig.entries.size(), 1u);
  rig.site(1).request_cs(kLock0);  // overlaps 0's quorum
  rig.sim.run();             // 1 is now fully parked, waiting only on 0
  EXPECT_EQ(rig.entries.size(), 1u);
  rig.release(0);
  rig.sim.run();
  ASSERT_EQ(rig.entries.size(), 2u);
  EXPECT_EQ(rig.entries[1].site, 1);
  // Exit -> forwarded reply (T). Maekawa would need release + reply (2T).
  EXPECT_EQ(rig.entries[1].at - rig.exits[0].at, 1000);
}

// ... and the arbiter learns about the forwarding from release(i, j): its
// lock must move to the forwarded site without it sending its own reply.
TEST(CaoSinghalProtocol, ReleaseWithForwardSkipsArbiterReply) {
  Rig rig(9);
  rig.site(0).request_cs(kLock0);
  rig.sim.run();
  rig.site(1).request_cs(kLock0);
  rig.sim.run();
  const auto direct_before = rig.net.stats().count(MsgType::kReply);
  rig.release(0);
  rig.sim.run();
  // Replies on the wire grew only by the forwards site 0 sent (to site 1),
  // bundled per destination: exactly one reply-carrying wire hop, from the
  // proxy, none from the arbiters themselves.
  EXPECT_EQ(rig.site(1).protocol_stats().transfers_ignored, 0u);
  EXPECT_GT(rig.net.stats().count(MsgType::kReply), direct_before);
  EXPECT_GT(rig.site(0).protocol_stats().replies_forwarded, 0u);
}

// C.1: several transfers from the same arbiter — only the newest is
// honoured ("deletes the following entries ... from the same sender").
TEST(CaoSinghalProtocol, OnlyLatestTransferPerArbiterIsHonoured) {
  Rig rig(9);
  rig.site(0).request_cs(kLock0);
  rig.sim.run();
  ASSERT_EQ(rig.entries.size(), 1u);
  // Two waiters behind site 0 at its own arbiter; 2 first (same clock
  // tick => priority by id; 1 beats 2 on arrival).
  rig.site(2).request_cs(kLock0);
  rig.sim.run_until(rig.sim.now() + 2500);
  rig.site(1).request_cs(kLock0);
  rig.sim.run();
  // Site 0's tran_stack now holds superseded entries for shared arbiters.
  const auto accepted = rig.site(0).protocol_stats().transfers_accepted;
  EXPECT_GT(accepted, 1u);
  rig.release(0);
  rig.sim.run();
  // Exactly one of the two waiters got the forwarded grant first and the
  // other entered later through the arbiter path; no double grants, no
  // stuck requests.
  ASSERT_EQ(rig.entries.size(), 2u);
  rig.release(rig.entries[1].site);
  rig.sim.run();
  ASSERT_EQ(rig.entries.size(), 3u);
  rig.release(rig.entries[2].site);
  rig.sim.run();
  // All three sites ran exactly once.
  std::vector<SiteId> order;
  for (const auto& e : rig.entries) order.push_back(e.site);
  std::sort(order.begin(), order.end());
  EXPECT_EQ(order, (std::vector<SiteId>{0, 1, 2}));
}

// A.3 + A.4: a holder that has failed elsewhere yields to a higher
// priority challenger; the arbiter re-grants to the challenger.
TEST(CaoSinghalProtocol, FailedHolderYieldsToHigherPriority) {
  Rig rig(9);
  // Site 8 starts first (lower priority id, same seq as 0 later): let 8
  // collect some grants, then 0 (higher priority) contends.
  rig.site(8).request_cs(kLock0);
  rig.sim.run_until(1100);
  rig.site(0).request_cs(kLock0);
  rig.sim.run();
  // Both must eventually get in, in *some* order (yield or release path).
  ASSERT_EQ(rig.entries.size(), 1u);
  rig.release(rig.entries[0].site);
  rig.sim.run();
  ASSERT_EQ(rig.entries.size(), 2u);
  EXPECT_NE(rig.entries[0].site, rig.entries[1].site);
  const auto& stats8 = rig.site(8).protocol_stats();
  const auto& stats0 = rig.site(0).protocol_stats();
  EXPECT_GT(stats8.yields_sent + stats0.yields_sent +
                rig.site(8).stale_drops() + rig.site(0).stale_drops(),
            0u);
}

// D2: an inquire reaching a site already inside the CS must NOT trigger a
// yield (that would let someone else in concurrently).
TEST(CaoSinghalProtocol, NoYieldFromInsideTheCS) {
  Rig rig(9);
  rig.site(0).request_cs(kLock0);
  rig.sim.run();
  ASSERT_TRUE(rig.site(0).in_cs());
  // Craft an inquire from one of 0's arbiters about its current request.
  const SiteId arbiter = rig.site(0).req_set()[1];
  Message inq = net::make_inquire(arbiter, ReqId{1, 0});
  inq.src = arbiter;
  inq.dst = 0;
  const auto yields_before = rig.site(0).protocol_stats().yields_sent;
  rig.site(0).on_message(inq, kLock0);
  EXPECT_TRUE(rig.site(0).in_cs());
  EXPECT_EQ(rig.site(0).protocol_stats().yields_sent, yields_before);
  EXPECT_GT(rig.site(0).stale_drops(), 0u);
}

// D1: control messages about finished or foreign requests are dropped.
TEST(CaoSinghalProtocol, StaleMessagesAreDropped) {
  Rig rig(9);
  rig.site(0).request_cs(kLock0);
  rig.sim.run();
  rig.release(0);
  rig.sim.run();
  const SiteId arbiter = rig.site(0).req_set()[1];
  const auto entries_before = rig.entries.size();

  Message stale_reply = net::make_reply(arbiter, ReqId{1, 0});
  stale_reply.src = arbiter;
  stale_reply.dst = 0;
  rig.site(0).on_message(stale_reply, kLock0);

  Message stale_fail = net::make_fail(arbiter, ReqId{1, 0});
  stale_fail.src = arbiter;
  stale_fail.dst = 0;
  rig.site(0).on_message(stale_fail, kLock0);

  Message stale_transfer = net::make_transfer(ReqId{5, 3}, arbiter, ReqId{1, 0});
  stale_transfer.src = arbiter;
  stale_transfer.dst = 0;
  rig.site(0).on_message(stale_transfer, kLock0);

  rig.sim.run();
  EXPECT_EQ(rig.entries.size(), entries_before);
  EXPECT_TRUE(rig.site(0).idle());
  EXPECT_GE(rig.site(0).stale_drops() +
                rig.site(0).protocol_stats().transfers_ignored,
            3u);
}

// A.5: a transfer for a permission we do not (or no longer) hold is
// discarded; the arbiter recovers via the release(i, max) path.
TEST(CaoSinghalProtocol, TransferWithoutPermissionIsIgnored) {
  Rig rig(9);
  rig.site(0).request_cs(kLock0);
  rig.sim.run();
  // Site 0 holds its grants; craft a transfer naming an arbiter whose
  // reply it *does* hold but with a mismatched holder request id.
  const SiteId arbiter = rig.site(0).req_set()[1];
  Message bogus = net::make_transfer(ReqId{9, 5}, arbiter, ReqId{99, 0});
  bogus.src = arbiter;
  bogus.dst = 0;
  const auto before = rig.site(0).protocol_stats().transfers_accepted;
  rig.site(0).on_message(bogus, kLock0);
  EXPECT_EQ(rig.site(0).protocol_stats().transfers_accepted, before);
}

// A.3/A.6: an inquire arriving before its reply (possible because replies
// can travel via a proxy) is deferred in inq_queue and resolved when the
// reply lands — here with failed=1, so it must yield then.
TEST(CaoSinghalProtocol, EarlyInquireIsDeferredUntilReply) {
  Rig rig(9);
  rig.site(0).request_cs(kLock0);
  rig.sim.run_until(500);  // requests still in flight, no replies yet
  ASSERT_TRUE(rig.site(0).requesting());
  const SiteId arbiter = rig.site(0).req_set()[1];

  // Early inquire: no reply from `arbiter` yet => deferred.
  Message inq = net::make_inquire(arbiter, ReqId{1, 0});
  inq.src = arbiter;
  inq.dst = 0;
  rig.site(0).on_message(inq, kLock0);
  EXPECT_EQ(rig.site(0).protocol_stats().inquires_deferred, 1u);
  EXPECT_EQ(rig.site(0).protocol_stats().yields_sent, 0u);

  // Mark the request failed, then let the replies arrive: the deferred
  // inquire must now resolve into a yield for that arbiter.
  Message fail = net::make_fail(rig.site(0).req_set()[2], ReqId{1, 0});
  fail.src = rig.site(0).req_set()[2];
  fail.dst = 0;
  rig.site(0).on_message(fail, kLock0);
  EXPECT_TRUE(rig.site(0).failed_flag());
  rig.sim.run();
  EXPECT_EQ(rig.site(0).protocol_stats().yields_sent, 1u);
}

// E9 machinery: with the proxy disabled the handoff goes back through the
// arbiter — exactly Maekawa's two message delays.
TEST(CaoSinghalProtocol, NoProxyHandoffTakesTwoMessageDelays) {
  CaoSinghalSite::Options opt;
  opt.proxy_transfer = false;
  Rig rig(9, "grid", 1000, opt);
  rig.site(0).request_cs(kLock0);
  rig.sim.run();
  rig.site(1).request_cs(kLock0);
  rig.sim.run();
  ASSERT_EQ(rig.entries.size(), 1u);
  rig.release(0);
  rig.sim.run();
  ASSERT_EQ(rig.entries.size(), 2u);
  EXPECT_EQ(rig.entries[1].at - rig.exits[0].at, 2000);  // release + reply
  EXPECT_EQ(rig.site(0).protocol_stats().replies_forwarded, 0u);
}

// Piggybacking off (E9): same control messages, more wire messages.
TEST(CaoSinghalProtocol, PiggybackingReducesWireMessages) {
  auto run_with = [&](bool piggyback) {
    CaoSinghalSite::Options opt;
    opt.piggyback = piggyback;
    Rig rig(9, "grid", 1000, opt);
    rig.site(0).request_cs(kLock0);
    rig.sim.run();
    rig.site(1).request_cs(kLock0);
    rig.site(2).request_cs(kLock0);
    rig.sim.run();
    rig.release(0);
    rig.sim.run();
    while (rig.entries.size() < 3) {
      rig.release(rig.entries.back().site);
      rig.sim.run();
    }
    return rig.net.stats();
  };
  const auto with = run_with(true);
  const auto without = run_with(false);
  EXPECT_EQ(with.control_messages, without.control_messages);
  EXPECT_LT(with.wire_messages, without.wire_messages);
}

// Determinism at the message level: identical rigs produce identical
// traces (the foundation for reproducible experiments).
TEST(CaoSinghalProtocol, IdenticalRigsProduceIdenticalTraces) {
  auto trace = [] {
    Rig rig(9);
    std::vector<std::string> events;
    rig.net.subscribe_delivery([&](const Message& m, LockId) {
      std::ostringstream os;
      os << rig.sim.now() << ' ' << m;
      events.push_back(os.str());
    });
    rig.site(3).request_cs(kLock0);
    rig.site(5).request_cs(kLock0);
    rig.sim.run();
    rig.release(rig.entries[0].site);
    rig.sim.run();
    return events;
  };
  EXPECT_EQ(trace(), trace());
}

// Misuse guards.
TEST(CaoSinghalProtocol, RejectsProtocolMisuse) {
  Rig rig(9);
  EXPECT_THROW(rig.site(0).release_cs(kLock0), CheckError);
  rig.site(0).request_cs(kLock0);
  EXPECT_THROW(rig.site(0).request_cs(kLock0), CheckError);
}

// Three-way saturation on one shared arbiter cell: everyone gets exactly
// one turn per round, no one starves across many rounds.
TEST(CaoSinghalProtocol, RoundRobinFairnessUnderSymmetricContention) {
  Rig rig(4);  // 2x2 grid: heavy quorum overlap
  std::vector<int> turns(4, 0);
  for (SiteId i = 0; i < 4; ++i) rig.site(i).request_cs(kLock0);
  rig.sim.run();
  for (int round = 0; round < 40; ++round) {
    ASSERT_FALSE(rig.entries.empty());
    const SiteId who = rig.entries.back().site;
    ++turns[static_cast<size_t>(who)];
    rig.release(who);
    // Re-request immediately: closed loop by hand.
    rig.site(who).request_cs(kLock0);
    rig.sim.run();
  }
  for (int t : turns) EXPECT_GE(t, 5) << "a site is being starved";
}

// The fallback path: if the arbiter's transfer reaches the holder only
// after the holder exited, it is discarded (A.5) and the handoff routes
// through release(i, max) -> arbiter reply: exactly 2T. The protocol is
// delay-optimal when waiters park early (§5.2's heavy-load assumption),
// and degrades to Maekawa's 2T — never worse — when they do not.
TEST(CaoSinghalProtocol, LateTransferFallsBackToTwoT) {
  Rig rig(9);
  rig.site(0).request_cs(kLock0);            // t=0; enters at t=2000
  rig.sim.run_until(1500);
  rig.site(1).request_cs(kLock0);            // t=1500; reaches arbiters t=2500
  rig.sim.run_until(2500);
  ASSERT_TRUE(rig.site(0).in_cs());
  // Arbiters send transfer at 2500 -> arrives at site 0 at 3500. Exit at
  // 3000 beats it: the transfer must be dropped as outdated.
  rig.sim.run_until(3000);
  rig.release(0);                      // exit t=3000
  rig.sim.run();
  ASSERT_EQ(rig.entries.size(), 2u);
  EXPECT_EQ(rig.entries[1].site, 1);
  // release(0, max) reaches arbiters at 4000; their direct reply lands at
  // 5000: exactly two message delays after the exit.
  EXPECT_EQ(rig.entries[1].at - rig.exits[0].at, 2000);
  EXPECT_GT(rig.site(0).stale_drops() +
                rig.site(0).protocol_stats().transfers_ignored,
            0u);
}

// Golden trace: the complete protocol cycle on three sites, pinned message
// by message. Constant delays + no stochastic inputs make this exactly
// reproducible; any change to the protocol's decisions shows up here as a
// diff (by design — update deliberately, with DESIGN.md in hand).
//
// The scenario walks through: self-grants, case-2 fail+transfer, case-1
// inquire+transfer, fail -> deferred-inquire -> yield, A.4 re-grant with
// piggybacked transfer, entry, exit with two forwarded replies bundled to
// the next entrant, parameterized releases, and the second entry exactly
// one delay after the first exit.
TEST(CaoSinghalProtocol, GoldenTraceThreeSites) {
  sim::Simulator sim;
  net::Network net(sim, 3, std::make_unique<net::ConstantDelay>(1000), 1);
  net::TraceRecorder trace(net);
  auto quorums = quorum::make_quorum_system("grid", 3);
  std::vector<std::unique_ptr<CaoSinghalSite>> sites;
  for (SiteId i = 0; i < 3; ++i) {
    sites.push_back(std::make_unique<CaoSinghalSite>(i, net, *quorums));
    net.attach(i, sites.back().get());
  }
  sites[2]->request_cs(kLock0);
  sim.run_until(500);
  sites[0]->request_cs(kLock0);
  sim.run();
  ASSERT_TRUE(sites[0]->in_cs());  // higher priority wins via yield
  sites[0]->release_cs(kLock0);
  sim.run();
  ASSERT_TRUE(sites[2]->in_cs());  // forwarded handoff
  sites[2]->release_cs(kLock0);
  sim.run();

  const std::vector<std::string> expected = {
      "0 request[2->2 req=(1,2)]",
      "0 reply[2->2 req=(1,2) arb=2]",
      "500 request[0->0 req=(1,0)]",
      "500 reply[0->0 req=(1,0) arb=0]",
      "1000 request[2->0 req=(1,2)]",
      "1000 transfer[0->0 req=(1,0) arb=0 tgt=(1,2)]",
      "1500 request[0->1 req=(1,0)]",
      "1500 request[0->2 req=(1,0)]",
      "1500 inquire[2->2 req=(1,2) arb=2]",
      "1500 transfer[2->2 req=(1,2) arb=2 tgt=(1,0)]",
      "2000 fail[0->2 req=(1,2) arb=0]",
      "2000 yield[2->2 req=(1,2) arb=2]",
      "2500 reply[1->0 req=(1,0) arb=1]",
      "3000 reply[2->0 req=(1,0) arb=2]",
      "3000 transfer[2->0 req=(1,0) arb=2 tgt=(1,2)]",
      "3000 release[0->0 req=(1,0) tgt=(1,2)]",
      "4000 release[0->1 req=(1,0)]",
      "4000 reply[0->2 req=(1,2) arb=0]",
      "4000 reply[0->2 req=(1,2) arb=2]",
      "4000 release[0->2 req=(1,0) tgt=(1,2)]",
      "4000 release[2->2 req=(1,2)]",
      "5000 release[2->0 req=(1,2)]",
  };
  ASSERT_EQ(trace.events().size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    std::ostringstream os;
    os << trace.events()[i].at << ' ' << trace.events()[i].msg;
    EXPECT_EQ(os.str(), expected[i]) << "trace line " << i;
  }
}

// Wire-level yield semantics: the arbiter's re-grant after a yield is one
// bundle carrying reply + transfer (A.4's piggybacking).
TEST(CaoSinghalProtocol, YieldRegrantPiggybacksTransfer) {
  sim::Simulator sim;
  net::Network net(sim, 3, std::make_unique<net::ConstantDelay>(1000), 1);
  net::TraceRecorder trace(net);
  auto quorums = quorum::make_quorum_system("grid", 3);
  std::vector<std::unique_ptr<CaoSinghalSite>> sites;
  for (SiteId i = 0; i < 3; ++i) {
    sites.push_back(std::make_unique<CaoSinghalSite>(i, net, *quorums));
    net.attach(i, sites.back().get());
  }
  sites[2]->request_cs(kLock0);
  sim.run_until(500);
  sites[0]->request_cs(kLock0);
  sim.run();
  // The re-grant from arbiter 2 to site 0 after site 2's yield: reply and
  // transfer delivered at the same instant (one wire bundle).
  auto regrant = trace.filter([](const net::TraceEvent& e) {
    return e.at == 3000 && e.msg.src == 2 && e.msg.dst == 0;
  });
  ASSERT_EQ(regrant.size(), 2u);
  EXPECT_EQ(regrant[0].msg.type, MsgType::kReply);
  EXPECT_EQ(regrant[1].msg.type, MsgType::kTransfer);
  EXPECT_EQ(regrant[1].msg.target, (ReqId{1, 2}));  // the yielder, queued
}

}  // namespace
}  // namespace dqme
