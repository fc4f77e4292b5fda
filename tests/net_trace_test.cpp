// Tests for the message trace recorder.
#include <gtest/gtest.h>

#include <sstream>

#include "net/network.h"
#include "net/trace.h"

namespace dqme::net {
namespace {

struct Sink final : NetSite {
  void on_message(const Message&, LockId) override {}
};

struct TraceRig {
  TraceRig() : net(sim, 2, std::make_unique<ConstantDelay>(100), 1) {
    net.attach(0, &sink);
    net.attach(1, &sink);
  }
  sim::Simulator sim;
  net::Network net;
  Sink sink;
};

TEST(TraceRecorder, CapturesEveryControlMessageWithTimestamp) {
  TraceRig rig;
  TraceRecorder trace(rig.net);
  rig.net.send(0, 1, make_request(ReqId{1, 0}));
  rig.net.send(1, 0, make_reply(1, ReqId{1, 0}));
  rig.sim.run();
  ASSERT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.events()[0].at, 100);
  EXPECT_EQ(trace.events()[0].msg.type, MsgType::kRequest);
  EXPECT_EQ(trace.events()[1].msg.type, MsgType::kReply);
  EXPECT_EQ(trace.count(MsgType::kRequest), 1u);
}

TEST(TraceRecorder, SharesDeliveriesWithOtherSubscribers) {
  TraceRig rig;
  int other_calls = 0;
  rig.net.subscribe_delivery([&](const Message&, LockId) { ++other_calls; });
  TraceRecorder trace(rig.net);
  rig.net.send(0, 1, make_request(ReqId{1, 0}));
  rig.net.send(1, 0, make_reply(1, ReqId{1, 0}));
  rig.sim.run();
  // Both subscribers see every delivery; neither hides one from the other.
  EXPECT_EQ(other_calls, 2);
  EXPECT_EQ(trace.events().size(), 2u);
}

TEST(TraceRecorder, BoundedCapacityDropsOldest) {
  TraceRig rig;
  TraceRecorder trace(rig.net, /*capacity=*/3);
  for (SeqNum s = 1; s <= 5; ++s)
    rig.net.send(0, 1, make_request(ReqId{s, 0}));
  rig.sim.run();
  EXPECT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.dropped(), 2u);
  EXPECT_EQ(trace.events().front().msg.req.seq, 3u);  // oldest kept
}

TEST(TraceRecorder, ClearResetsEventsAndDropCount) {
  TraceRig rig;
  TraceRecorder trace(rig.net, /*capacity=*/3);
  for (SeqNum s = 1; s <= 5; ++s)
    rig.net.send(0, 1, make_request(ReqId{s, 0}));
  rig.sim.run();
  ASSERT_EQ(trace.dropped(), 2u);

  // A cleared recorder starts a fresh window: stale drop counts must not
  // leak into it (regression: clear() used to reset events_ only).
  trace.clear();
  EXPECT_EQ(trace.events().size(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);

  rig.net.send(0, 1, make_request(ReqId{6, 0}));
  rig.sim.run();
  EXPECT_EQ(trace.events().size(), 1u);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TraceRecorder, DeliveryCarriesSpanAndSendTime) {
  TraceRig rig;
  TraceRecorder trace(rig.net);
  rig.net.send(0, 1, make_request(ReqId{7, 0}));
  rig.sim.run();
  ASSERT_EQ(trace.events().size(), 1u);
  const Message& m = trace.events()[0].msg;
  EXPECT_EQ(m.span, span_of(ReqId{7, 0}));
  EXPECT_EQ(m.sent_at, 0);
  EXPECT_EQ(trace.events()[0].at, 100);
}

TEST(TraceRecorder, FilterSelectsMatchingEvents) {
  TraceRig rig;
  TraceRecorder trace(rig.net);
  rig.net.send(0, 1, make_request(ReqId{1, 0}));
  rig.net.send(0, 1, make_fail(0, ReqId{1, 0}));
  rig.net.send(0, 1, make_request(ReqId{2, 0}));
  rig.sim.run();
  auto requests = trace.filter([](const TraceEvent& e) {
    return e.msg.type == MsgType::kRequest;
  });
  EXPECT_EQ(requests.size(), 2u);
}

TEST(TraceRecorder, PrintProducesOneLinePerEvent) {
  TraceRig rig;
  TraceRecorder trace(rig.net);
  rig.net.send(0, 1, make_request(ReqId{1, 0}));
  rig.sim.run();
  std::ostringstream os;
  trace.print(os);
  EXPECT_NE(os.str().find("request[0->1"), std::string::npos);
}

TEST(TraceRecorder, RecordsLockTagAndPrintsItForNonZeroLocks) {
  TraceRig rig;
  TraceRecorder trace(rig.net);
  rig.net.send(0, 1, make_request(ReqId{1, 0}));              // lock 0
  rig.net.send(0, 1, make_request(ReqId{2, 0}), LockId{7});   // lock 7
  rig.sim.run();
  ASSERT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.events()[0].lock, kLock0);
  EXPECT_EQ(trace.events()[1].lock, LockId{7});
  std::ostringstream os;
  trace.print(os);
  // Lock 0 lines keep the historical single-lock format; only the lock-7
  // line grows a tag.
  EXPECT_EQ(os.str().find("[lock 0]"), std::string::npos);
  EXPECT_NE(os.str().find("[lock 7]"), std::string::npos);
}

}  // namespace
}  // namespace dqme::net
