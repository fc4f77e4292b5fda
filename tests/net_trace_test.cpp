// Tests for the event log's view of network traffic (obs/event_log.h):
// every delivery recorded once, with its delivery time, message, lock and
// cause, next to any other subscriber, and a bound that refuses the newest.
#include <gtest/gtest.h>

#include "net/network.h"
#include "obs/event_log.h"

namespace dqme::obs {
namespace {

using net::MsgType;

struct Sink final : net::NetSite {
  void on_message(const net::Message&, LockId) override {}
};

struct TraceRig {
  TraceRig() : net(sim, 2, std::make_unique<net::ConstantDelay>(100), 1) {
    net.attach(0, &sink);
    net.attach(1, &sink);
  }
  sim::Simulator sim;
  net::Network net;
  Sink sink;
};

TEST(EventLog, RecordsEveryDeliveryWithTimestamp) {
  TraceRig rig;
  EventLog log(rig.net);
  rig.net.send(0, 1, net::make_request(ReqId{1, 0}));
  rig.net.send(1, 0, net::make_reply(1, ReqId{1, 0}));
  rig.sim.run();
  ASSERT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.events()[0].kind, EventKind::kDeliver);
  EXPECT_EQ(log.events()[0].at, 100);
  EXPECT_EQ(log.events()[0].site, 1);  // filed on the receiver
  EXPECT_EQ(log.events()[0].msg.type, MsgType::kRequest);
  EXPECT_EQ(log.events()[1].msg.type, MsgType::kReply);
}

TEST(EventLog, SharesDeliveriesWithOtherSubscribers) {
  TraceRig rig;
  int other_calls = 0;
  rig.net.subscribe_delivery(
      [&](const net::Message&, LockId) { ++other_calls; });
  EventLog log(rig.net);
  rig.net.send(0, 1, net::make_request(ReqId{1, 0}));
  rig.net.send(1, 0, net::make_reply(1, ReqId{1, 0}));
  rig.sim.run();
  // Both subscribers see every delivery; neither hides one from the other.
  EXPECT_EQ(other_calls, 2);
  EXPECT_EQ(log.events().size(), 2u);
}

TEST(EventLog, BoundRefusesNewestSoCausesStayValid) {
  TraceRig rig;
  EventLog log(rig.net, /*capacity=*/3);
  for (SeqNum s = 1; s <= 5; ++s)
    rig.net.send(0, 1, net::make_request(ReqId{s, 0}));
  rig.sim.run();
  EXPECT_EQ(log.events().size(), 3u);
  EXPECT_EQ(log.recording().dropped, 2u);
  EXPECT_EQ(log.events().front().msg.req.seq, 1u);  // oldest kept
  EXPECT_EQ(log.events().back().msg.req.seq, 3u);
}

TEST(EventLog, DeliveryCarriesSpanAndSendTime) {
  TraceRig rig;
  EventLog log(rig.net);
  rig.net.send(0, 1, net::make_request(ReqId{7, 0}));
  rig.sim.run();
  ASSERT_EQ(log.events().size(), 1u);
  const Event& e = log.events()[0];
  EXPECT_EQ(e.span, span_of(ReqId{7, 0}));
  EXPECT_EQ(e.msg.span, e.span);
  EXPECT_EQ(e.msg.sent_at, 0);
  EXPECT_EQ(e.msg.src, 0);
  EXPECT_EQ(e.at, 100);
}

TEST(EventLog, RecordsLockTagAndCrashes) {
  TraceRig rig;
  EventLog log(rig.net);
  rig.net.send(0, 1, net::make_request(ReqId{1, 0}));             // lock 0
  rig.net.send(0, 1, net::make_request(ReqId{2, 0}), LockId{7});  // lock 7
  rig.sim.run();
  rig.net.crash(1);
  ASSERT_EQ(log.events().size(), 3u);
  EXPECT_EQ(log.events()[0].lock, kLock0);
  EXPECT_EQ(log.events()[1].lock, LockId{7});
  EXPECT_EQ(log.events()[2].kind, EventKind::kCrash);
  EXPECT_EQ(log.events()[2].site, 1);
  EXPECT_EQ(log.events()[2].at, 100);
}

// A handler's sends are caused by the delivery being handled: the log
// makes each recorded delivery the network's send cause, and the message
// carries that index back when it is delivered.
TEST(EventLog, ThreadsCausesThroughHandlers) {
  struct Echo final : net::NetSite {
    explicit Echo(net::Network& n) : net(n) {}
    void on_message(const net::Message& m, LockId) override {
      if (m.type == MsgType::kRequest)
        net.send(m.dst, m.src, net::make_reply(m.dst, m.req));
    }
    net::Network& net;
  };
  sim::Simulator sim;
  net::Network net(sim, 2, std::make_unique<net::ConstantDelay>(100), 1);
  Echo echo(net);
  net.attach(0, &echo);
  net.attach(1, &echo);
  EventLog log(net);
  net.send(0, 1, net::make_request(ReqId{1, 0}));
  sim.run();
  ASSERT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.events()[0].cause, net::kNoCause);  // sent from outside
  EXPECT_EQ(log.events()[1].cause, 0);  // the reply's handler was event 0
}

// Payload handles die at delivery (the backend recycles the pooled slot),
// so a retained copy never carries one — severed once, when the record is
// made.
TEST(EventLog, DeliveryRecordSeversPayloadHandle) {
  net::Message m = net::make_request(ReqId{1, 0});
  m.dst = 1;
  m.payload = 42;
  const Event e = Event::delivery(m, kLock0, 9);
  EXPECT_EQ(e.msg.payload, net::kNoPayload);
  EXPECT_EQ(e.site, 1);
  EXPECT_EQ(e.at, 9);
}

}  // namespace
}  // namespace dqme::obs
