// Tests for the black-box flight recorder (obs/flight_recorder.h): the
// bounded ring wraps and keeps the newest history, and the checker — its
// one feeding path — forwards deliveries and crashes and auto-dumps on the
// first violation with the violating event at the dump's tail.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "net/network.h"
#include "net/message.h"
#include "obs/flight_recorder.h"
#include "obs/invariants.h"
#include "obs/span.h"

namespace dqme::obs {
namespace {

net::Message scripted(net::MsgType type, ReqId req, SiteId src, SiteId dst,
                      Time sent_at) {
  net::Message m;
  m.type = type;
  m.req = req;
  m.src = src;
  m.dst = dst;
  m.sent_at = sent_at;
  m.span = span_of(req);
  return m;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

// The dump's last trace-event line (the otherData footer has no "ph").
std::string last_event_line(const std::string& text) {
  std::istringstream in(text);
  std::string line, last;
  while (std::getline(in, line))
    if (line.find("\"ph\":") != std::string::npos) last = line;
  return last;
}

TEST(FlightRecorder, RingWrapsKeepingNewestOldestFirst) {
  FlightRecorder fr(4);
  EXPECT_EQ(fr.capacity(), 4u);
  for (Time t = 0; t < 7; ++t)
    fr.record(Event::delivery(
        scripted(net::MsgType::kRequest,
                 ReqId{static_cast<SeqNum>(t + 1), 1}, 1, 0, t),
        kLock0, t));
  EXPECT_EQ(fr.size(), 4u);
  EXPECT_EQ(fr.recorded(), 7u);
  const auto events = fr.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest three fell off the ring; survivors come back oldest-first.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].at, static_cast<Time>(i + 3));
    EXPECT_EQ(events[i].kind, EventKind::kDeliver);
  }
  EXPECT_THROW(FlightRecorder(0), CheckError);
}

TEST(FlightRecorder, DumpToBadPathFailsSoftly) {
  FlightRecorder fr(4);
  fr.record(Event::crash(0, 1));
  EXPECT_FALSE(fr.dump_to("/nonexistent-dir/flightrec.json"));
  // Auto-dump to an unopenable path must not throw either.
  fr.set_dump_path("/nonexistent-dir/flightrec.json");
  EXPECT_NO_THROW(fr.record_violation("synthetic", 2));
  EXPECT_TRUE(fr.dumped());
}

// Checker-fed black box against a seeded negative (the dqme_check
// --selftest double-entry script): the first violation auto-dumps, and the
// dump's tail IS the violating event, preceded by the span edges that led
// there — the acceptance shape for every selftest negative.
TEST(FlightRecorder, CheckerViolationAutoDumpsWithViolationAtTail) {
  const std::string path =
      testing::TempDir() + "flightrec_violation_test.json";
  std::remove(path.c_str());

  sim::Simulator sim;
  net::Network net(sim, 4, std::make_unique<net::ConstantDelay>(100), 1);
  obs::InvariantChecker ck(net, {});
  FlightRecorder fr(8);
  fr.set_dump_path(path);
  fr.set_label("flight_recorder_test");
  ck.set_flight_recorder(&fr);

  const ReqId r1{10, 1}, r2{20, 2};
  ck.on_span_issue(1, kLock0, span_of(r1), 0);
  ck.on_span_issue(2, kLock0, span_of(r2), 0);
  ck.on_span_enter(1, kLock0, span_of(r1), 10);
  EXPECT_FALSE(fr.dumped());
  ck.on_span_enter(2, kLock0, span_of(r2), 11);  // overlap -> violation
  EXPECT_TRUE(fr.dumped());
  EXPECT_GE(ck.violations(), 1u);

  const std::string dump = read_file(path);
  ASSERT_FALSE(dump.empty());
  const std::string tail = last_event_line(dump);
  EXPECT_NE(tail.find("\"violation\""), std::string::npos) << tail;
  EXPECT_NE(tail.find("entered the CS"), std::string::npos) << tail;
  // The ring history before the tail holds the span edges that caused it.
  EXPECT_NE(dump.find("\"enter\""), std::string::npos);
  EXPECT_NE(dump.find("thread_name"), std::string::npos);

  // First violation only: later violations do not rewrite the black box.
  ck.on_span_enter(3, kLock0, span_of(ReqId{30, 3}), 12);
  EXPECT_EQ(read_file(path), dump);
  std::remove(path.c_str());
}

TEST(FlightRecorder, CheckerForwardsDeliveriesAndCrashes) {
  struct Sink final : net::NetSite {
    void on_message(const net::Message&, LockId) override {}
  };
  sim::Simulator sim;
  net::Network net(sim, 2, std::make_unique<net::ConstantDelay>(10), 1);
  Sink a, b;
  net.attach(0, &a);
  net.attach(1, &b);
  obs::InvariantChecker ck(net, {});
  FlightRecorder fr(8);
  ck.set_flight_recorder(&fr);
  net::Message m = net::make_request(ReqId{1, 0});
  net.attach_kv(m);  // a payload handle the ring must not keep
  net.send(0, 1, m, LockId{5});
  sim.run();
  net.crash(1);
  const auto events = fr.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kDeliver);
  EXPECT_EQ(events[0].at, 10);
  EXPECT_EQ(events[0].lock, 5);
  EXPECT_EQ(events[0].site, 1);  // delivery is filed on the receiver's lane
  EXPECT_EQ(events[0].msg.payload, net::kNoPayload);
  EXPECT_EQ(events[1].kind, EventKind::kCrash);
  EXPECT_EQ(events[1].site, 1);
}

}  // namespace
}  // namespace dqme::obs
