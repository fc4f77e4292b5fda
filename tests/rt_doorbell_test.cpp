// rt::Doorbell and the rt::Runtime park policy built on it (DESIGN.md §9).
//
// The ping-pong case exists for the lost-wakeup window the doorbell's
// memory-ordering argument closes (src/rt/doorbell.h): both threads park
// with no timeout, so one lost wakeup hangs the test until ctest's TIMEOUT
// instead of being papered over by a retry. The Runtime cases check that a
// pump parked with nothing to wait for is still woken by request_stop()
// and by quiescence — otherwise run() would never return.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "net/message.h"
#include "rt/doorbell.h"
#include "rt/runtime.h"

namespace dqme::rt {
namespace {

using Clock = std::chrono::steady_clock;

// Parks on `bell` until `ball` holds `want`, exactly the way a pump parks:
// arm, re-check (a seq_cst load, like SpscRing::empty()), wait untimed,
// disarm. The other side publishes with a seq_cst store before ringing,
// like SpscRing::republish().
void wait_for(std::atomic<uint64_t>& ball, uint64_t want, Doorbell& bell) {
  while (ball.load(std::memory_order_seq_cst) != want) {
    bell.arm(Doorbell::kForever);
    if (ball.load(std::memory_order_seq_cst) == want) {
      bell.disarm();
      return;
    }
    bell.wait(Clock::time_point::max());
    bell.disarm();
  }
}

TEST(Doorbell, PingPongWithoutTimeoutLosesNoWakeup) {
  constexpr uint64_t kRoundTrips = 1'000'000;
  std::atomic<uint64_t> ball{0};  // even: ping's turn, odd: pong's
  Doorbell bells[2];
  std::thread pong([&] {
    for (uint64_t k = 0; k < kRoundTrips; ++k) {
      wait_for(ball, 2 * k + 1, bells[1]);
      ball.store(2 * k + 2, std::memory_order_seq_cst);
      bells[0].ring_before(0);
    }
  });
  for (uint64_t k = 0; k < kRoundTrips; ++k) {
    ball.store(2 * k + 1, std::memory_order_seq_cst);
    bells[1].ring_before(0);
    wait_for(ball, 2 * k + 2, bells[0]);
  }
  pong.join();
  EXPECT_EQ(ball.load(), 2 * kRoundTrips);
}

TEST(Doorbell, RingSkipsAParkWaitingForEarlierWork) {
  Doorbell bell;
  EXPECT_FALSE(bell.ring_before(0));  // nobody parked
  bell.arm(1000);
  EXPECT_FALSE(bell.ring_before(1000));  // due no earlier than the park
  EXPECT_FALSE(bell.ring_before(5000));
  EXPECT_TRUE(bell.ring_before(999));  // earlier: wakes, and disarms
  EXPECT_FALSE(bell.ring_before(0));
  bell.arm(Doorbell::kForever);
  EXPECT_TRUE(bell.ring());
  bell.disarm();
}

TEST(Doorbell, TimedWaitReturnsAtItsDeadline) {
  Doorbell bell;
  bell.arm(Doorbell::kForever);
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::milliseconds(2);
  while (Clock::now() < deadline) bell.wait(deadline);  // may return early
  bell.disarm();
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(1));
}

// A site that counts deliveries and never sends.
struct Sink final : net::NetSite {
  std::atomic<int> got{0};
  void on_message(const net::Message&, LockId) override {
    got.fetch_add(1, std::memory_order_relaxed);
  }
};

TEST(RuntimePark, RequestStopWakesEveryParkedPump) {
  RuntimeOptions ro;
  ro.wire_delay_us = 100;
  Runtime rtc(4, ro);
  Sink sinks[4];
  for (SiteId s = 0; s < 4; ++s) rtc.attach(s, &sinks[s]);
  // Never done and nothing to wait for: every pump parks untimed.
  std::thread runner([&rtc] { rtc.run([](SiteId) { return false; }); });
  while (rtc.stats().parks < 4)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const uint64_t parks = rtc.stats().parks;
  const auto t0 = Clock::now();
  rtc.request_stop();
  runner.join();
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(1));
  // The pumps stayed parked until rung (a rare spurious futex return aside,
  // a pump re-parks only when something wakes it).
  EXPECT_LE(rtc.stats().parks, parks + 4);
}

TEST(RuntimePark, QuiescenceWakesEveryParkedPump) {
  RuntimeOptions ro;
  ro.wire_delay_us = 20'000;  // long enough for the other pumps to park
  Runtime rtc(3, ro);
  Sink sinks[3];
  for (SiteId s = 0; s < 3; ++s) rtc.attach(s, &sinks[s]);
  // Every site is done at its first poll; site 0 first sends one message
  // to site 1. Quiescence then comes from site 1's delivery, 20 ms later,
  // while sites 0 and 2 are parked with nothing to wait for.
  std::atomic<bool> sent{false};
  const auto t0 = Clock::now();
  rtc.run([&](SiteId s) {
    if (s == 0 && !sent.exchange(true)) rtc.send(0, 1, net::Message{});
    return true;
  });
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(1));
  EXPECT_EQ(sinks[1].got.load(), 1);
  EXPECT_EQ(rtc.in_flight(), 0u);
  const RuntimeStats st = rtc.stats();
  EXPECT_GE(st.parks, 3u);
  // At least the quiescence ring of sites 0 and 2.
  EXPECT_GE(st.wakeups_sent, 2u);
}

}  // namespace
}  // namespace dqme::rt
