// Unit tests for the simulated network: FIFO channels, delay models,
// piggyback accounting (paper §5's cost model), crash semantics.
#include <gtest/gtest.h>

#include "net/network.h"

namespace dqme::net {
namespace {

// Collects everything delivered to one site.
class Sink final : public NetSite {
 public:
  void on_message(const Message& m, LockId lock) override {
    received.push_back(m);
    locks.push_back(lock);
  }
  std::vector<Message> received;
  std::vector<LockId> locks;
};

struct Rig {
  explicit Rig(int n, Time delay = 100, uint64_t seed = 1)
      : net(sim, n, std::make_unique<ConstantDelay>(delay), seed),
        sinks(static_cast<size_t>(n)) {
    for (SiteId i = 0; i < n; ++i) net.attach(i, &sinks[static_cast<size_t>(i)]);
  }
  sim::Simulator sim;
  Network net;
  std::vector<Sink> sinks;
};

TEST(Network, DeliversWithConfiguredDelay) {
  Rig rig(2, 100);
  rig.net.send(0, 1, make_request(ReqId{1, 0}));
  rig.sim.run();
  ASSERT_EQ(rig.sinks[1].received.size(), 1u);
  EXPECT_EQ(rig.sim.now(), 100);
  EXPECT_EQ(rig.sinks[1].received[0].src, 0);
  EXPECT_EQ(rig.sinks[1].received[0].dst, 1);
}

TEST(Network, PerChannelFifoUnderRandomDelays) {
  // With heavy jitter, later sends must still arrive after earlier ones.
  sim::Simulator sim;
  Network net(sim, 2, std::make_unique<UniformDelay>(1, 500), 99);
  Sink sink;
  net.attach(0, &sink);
  net.attach(1, &sink);
  for (SeqNum s = 1; s <= 200; ++s) {
    net.send(0, 1, make_request(ReqId{s, 0}));
    sim.run_until(sim.now() + 3);
  }
  sim.run();
  ASSERT_EQ(sink.received.size(), 200u);
  for (size_t i = 0; i < sink.received.size(); ++i)
    EXPECT_EQ(sink.received[i].req.seq, i + 1) << "FIFO violated at " << i;
}

TEST(Network, IndependentChannelsDoNotBlockEachOther) {
  Rig rig(3, 100);
  rig.net.send(0, 1, make_request(ReqId{1, 0}));
  rig.net.send(2, 1, make_request(ReqId{2, 2}));
  rig.sim.run();
  EXPECT_EQ(rig.sinks[1].received.size(), 2u);
}

TEST(Network, BundleCountsAsOneWireMessage) {
  Rig rig(2);
  std::vector<Message> bundle;
  bundle.push_back(make_inquire(0, ReqId{1, 1}));
  bundle.push_back(make_transfer(ReqId{2, 0}, 0, ReqId{1, 1}));
  rig.net.send_bundle(0, 1, std::move(bundle));
  rig.sim.run();
  EXPECT_EQ(rig.net.stats().wire_messages, 1u);        // paper's count
  EXPECT_EQ(rig.net.stats().control_messages, 2u);     // actual messages
  EXPECT_EQ(rig.net.stats().count(MsgType::kInquire), 1u);
  EXPECT_EQ(rig.net.stats().count(MsgType::kTransfer), 1u);
  ASSERT_EQ(rig.sinks[1].received.size(), 2u);
  // Delivered back-to-back in bundle order at the same instant.
  EXPECT_EQ(rig.sinks[1].received[0].type, MsgType::kInquire);
  EXPECT_EQ(rig.sinks[1].received[1].type, MsgType::kTransfer);
}

TEST(Network, SelfSendIsImmediateAndUncounted) {
  Rig rig(2, 500);
  rig.net.send(0, 0, make_request(ReqId{1, 0}));
  rig.sim.run();
  EXPECT_EQ(rig.sim.now(), 0);  // zero-delay local delivery
  EXPECT_EQ(rig.sinks[0].received.size(), 1u);
  EXPECT_EQ(rig.net.stats().wire_messages, 0u);
  EXPECT_EQ(rig.net.stats().local_deliveries, 1u);
}

TEST(Network, SelfSendIsNotInlineReentrant) {
  // The handler must not run inside send() — protocols assume handlers are
  // never re-entered from their own sends.
  Rig rig(1);
  bool delivered_inline = true;
  rig.net.send(0, 0, make_request(ReqId{1, 0}));
  delivered_inline = !rig.sinks[0].received.empty();
  EXPECT_FALSE(delivered_inline);
  rig.sim.run();
  EXPECT_EQ(rig.sinks[0].received.size(), 1u);
}

TEST(Network, CrashedDestinationDropsMessages) {
  Rig rig(2);
  rig.net.crash(1);
  rig.net.send(0, 1, make_request(ReqId{1, 0}));
  rig.sim.run();
  EXPECT_TRUE(rig.sinks[1].received.empty());
  EXPECT_EQ(rig.net.stats().dropped_at_crashed, 1u);
}

TEST(Network, CrashedSourceIsSilent) {
  Rig rig(2);
  rig.net.crash(0);
  rig.net.send(0, 1, make_request(ReqId{1, 0}));
  rig.sim.run();
  EXPECT_TRUE(rig.sinks[1].received.empty());
}

TEST(Network, InFlightMessagesToCrashedSiteAreDropped) {
  Rig rig(2, 100);
  rig.net.send(0, 1, make_request(ReqId{1, 0}));
  rig.sim.run_until(50);
  rig.net.crash(1);  // crash while the message is in flight
  rig.sim.run();
  EXPECT_TRUE(rig.sinks[1].received.empty());
}

TEST(Network, AliveCountTracksCrashes) {
  Rig rig(5);
  EXPECT_EQ(rig.net.alive_count(), 5);
  rig.net.crash(2);
  rig.net.crash(4);
  EXPECT_EQ(rig.net.alive_count(), 3);
  EXPECT_FALSE(rig.net.alive(2));
  EXPECT_TRUE(rig.net.alive(0));
}

TEST(Network, DeliverySubscriberSeesEveryControlMessage) {
  Rig rig(2);
  int hooked = 0;
  rig.net.subscribe_delivery([&](const Message&, LockId) { ++hooked; });
  std::vector<Message> bundle;
  bundle.push_back(make_reply(0, ReqId{1, 1}));
  bundle.push_back(make_transfer(ReqId{2, 0}, 0, ReqId{1, 1}));
  rig.net.send_bundle(0, 1, std::move(bundle));
  rig.net.send(1, 0, make_request(ReqId{3, 1}));
  rig.sim.run();
  EXPECT_EQ(hooked, 3);
}

TEST(Network, SendTagsDeliveryWithLockId) {
  Rig rig(2);
  rig.net.send(0, 1, make_request(ReqId{1, 0}), LockId{7});
  rig.net.send(0, 1, make_request(ReqId{2, 0}));  // defaults to lock 0
  rig.sim.run();
  ASSERT_EQ(rig.sinks[1].locks.size(), 2u);
  EXPECT_EQ(rig.sinks[1].locks[0], 7);
  EXPECT_EQ(rig.sinks[1].locks[1], kLock0);
}

TEST(Network, LockPiggybackCoalescesSameChannelWithinWindow) {
  Rig rig(2, 100);
  rig.net.set_lock_piggyback(50);
  rig.net.send(0, 1, make_request(ReqId{1, 0}), LockId{0});
  rig.sim.run_until(10);  // still inside the window, flight not yet landed
  rig.net.send(0, 1, make_request(ReqId{2, 0}), LockId{3});
  rig.sim.run();
  EXPECT_EQ(rig.net.stats().wire_messages, 1u);
  EXPECT_EQ(rig.net.stats().control_messages, 2u);
  EXPECT_EQ(rig.net.stats().piggybacked_messages, 1u);
  ASSERT_EQ(rig.sinks[1].received.size(), 2u);
  // Both ride the first flight: delivered together at its instant, each
  // keeping its own lock tag.
  EXPECT_EQ(rig.sim.now(), 100);
  EXPECT_EQ(rig.sinks[1].locks[0], 0);
  EXPECT_EQ(rig.sinks[1].locks[1], 3);
  EXPECT_EQ(rig.sinks[1].received[1].req.seq, 2u);
}

TEST(Network, LockPiggybackStampsTrueStagingInstant) {
  // Span accounting audit: a message that joins an older open flight must
  // carry the tick it was STAGED at, not the flight's origin — otherwise
  // every latency derived from sent_at (span waiting, FIFO monotonicity)
  // silently credits piggybacked messages with time they never spent.
  Rig rig(2, 100);
  rig.net.set_lock_piggyback(50);
  rig.net.send(0, 1, make_request(ReqId{1, 0}), LockId{0});
  rig.sim.run_until(10);
  rig.net.send(0, 1, make_request(ReqId{2, 0}), LockId{3});  // joins flight
  rig.sim.run();
  ASSERT_EQ(rig.sinks[1].received.size(), 2u);
  EXPECT_EQ(rig.sinks[1].received[0].sent_at, 0);
  EXPECT_EQ(rig.sinks[1].received[1].sent_at, 10);
  // Both still land at the shared flight's instant.
  EXPECT_EQ(rig.sim.now(), 100);
}

TEST(Network, LockPiggybackWindowExpires) {
  Rig rig(2, 100);
  rig.net.set_lock_piggyback(20);
  rig.net.send(0, 1, make_request(ReqId{1, 0}));
  rig.sim.run_until(30);  // past the window, flight still in the air
  rig.net.send(0, 1, make_request(ReqId{2, 0}), LockId{1});
  rig.sim.run();
  EXPECT_EQ(rig.net.stats().wire_messages, 2u);
  EXPECT_EQ(rig.net.stats().piggybacked_messages, 0u);
  ASSERT_EQ(rig.sinks[1].received.size(), 2u);
}

TEST(Network, LockPiggybackOffByDefault) {
  Rig rig(2, 100);
  EXPECT_LT(rig.net.lock_piggyback(), 0);
  rig.net.send(0, 1, make_request(ReqId{1, 0}));
  rig.net.send(0, 1, make_request(ReqId{2, 0}), LockId{1});
  rig.sim.run();
  EXPECT_EQ(rig.net.stats().wire_messages, 2u);
  EXPECT_EQ(rig.net.stats().piggybacked_messages, 0u);
}

TEST(Network, LockPiggybackZeroWindowCoalescesSameInstantOnly) {
  // W=0: only messages staged at the exact same tick share a flight — the
  // timing-preserving mode the lock-table equivalence test relies on.
  Rig rig(2, 100);
  rig.net.set_lock_piggyback(0);
  rig.net.send(0, 1, make_request(ReqId{1, 0}), LockId{0});
  rig.net.send(0, 1, make_request(ReqId{2, 0}), LockId{1});
  rig.sim.run_until(1);
  rig.net.send(0, 1, make_request(ReqId{3, 0}), LockId{2});
  rig.sim.run();
  EXPECT_EQ(rig.net.stats().wire_messages, 2u);
  EXPECT_EQ(rig.net.stats().piggybacked_messages, 1u);
  ASSERT_EQ(rig.sinks[1].received.size(), 3u);
  EXPECT_EQ(rig.sinks[1].locks[0], 0);
  EXPECT_EQ(rig.sinks[1].locks[1], 1);
  EXPECT_EQ(rig.sinks[1].locks[2], 2);
}

TEST(Network, LockPiggybackPreservesFifoAcrossFlights) {
  // A message appended to an older open flight must not overtake anything,
  // and later separate flights must not overtake the appended message.
  Rig rig(2, 100);
  rig.net.set_lock_piggyback(80);
  rig.net.send(0, 1, make_request(ReqId{1, 0}));
  rig.sim.run_until(40);
  rig.net.send(0, 1, make_request(ReqId{2, 0}), LockId{1});  // appended
  rig.sim.run_until(90);
  rig.net.send(0, 1, make_request(ReqId{3, 0}), LockId{2});  // own flight
  rig.sim.run();
  ASSERT_EQ(rig.sinks[1].received.size(), 3u);
  for (size_t i = 0; i < 3; ++i)
    EXPECT_EQ(rig.sinks[1].received[i].req.seq, i + 1);
  EXPECT_EQ(rig.net.stats().wire_messages, 2u);
}

TEST(DelayModels, ConstantAlwaysReturnsT) {
  Rng rng(1);
  ConstantDelay d(250);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(d.sample(rng, 0, 1), 250);
  EXPECT_EQ(d.mean(), 250);
}

TEST(DelayModels, UniformStaysInBounds) {
  Rng rng(2);
  UniformDelay d(100, 300);
  for (int i = 0; i < 1000; ++i) {
    Time v = d.sample(rng, 0, 1);
    ASSERT_GE(v, 100);
    ASSERT_LE(v, 300);
  }
  EXPECT_EQ(d.mean(), 200);
}

TEST(DelayModels, ShiftedExponentialRespectsMinAndCap) {
  Rng rng(3);
  ShiftedExponentialDelay d(50, 200, 1000);
  double sum = 0;
  for (int i = 0; i < 5000; ++i) {
    Time v = d.sample(rng, 0, 1);
    ASSERT_GE(v, 50);
    ASSERT_LE(v, 1000);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / 5000.0, 200.0, 20.0);  // cap truncation bias is small
}

TEST(DelayModels, ClusteredSeparatesLanAndWan) {
  Rng rng(5);
  // Sites 0-2 in cluster 0, sites 3-5 in cluster 1.
  ClusteredDelay d({0, 0, 0, 1, 1, 1}, 100, 1000);
  for (int i = 0; i < 500; ++i) {
    Time lan = d.sample(rng, 0, 2);
    Time wan = d.sample(rng, 0, 4);
    ASSERT_GE(lan, 75);
    ASSERT_LE(lan, 125);
    ASSERT_GE(wan, 750);
    ASSERT_LE(wan, 1250);
  }
}

TEST(DelayModels, ClusteredDrivesProtocolSafely) {
  // End-to-end smoke over heterogeneous delays: the protocol only assumes
  // FIFO + bounded, not identically distributed.
  sim::Simulator sim;
  Network net(sim, 4,
              std::make_unique<ClusteredDelay>(
                  std::vector<int>{0, 0, 1, 1}, 100, 1200),
              3);
  Sink sink;
  for (SiteId i = 0; i < 4; ++i) net.attach(i, &sink);
  for (SeqNum s = 1; s <= 50; ++s) {
    net.send(0, 1, make_request(ReqId{s, 0}));
    net.send(0, 3, make_request(ReqId{s, 0}));
  }
  sim.run();
  EXPECT_EQ(sink.received.size(), 100u);
  // FIFO held on both the fast and the slow channel.
  SeqNum last_fast = 0, last_slow = 0;
  for (const Message& m : sink.received) {
    SeqNum& last = m.dst == 1 ? last_fast : last_slow;
    EXPECT_GT(m.req.seq, last);
    last = m.req.seq;
  }
}

TEST(MessageFormatting, HumanReadable) {
  Message m = make_transfer(ReqId{2, 3}, 7, ReqId{1, 4});
  m.src = 7;
  m.dst = 4;
  std::ostringstream os;
  os << m;
  EXPECT_EQ(os.str(), "transfer[7->4 req=(1,4) arb=7 tgt=(2,3)]");
}

}  // namespace
}  // namespace dqme::net
