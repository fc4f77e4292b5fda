// Per-site parking word for the real-threads backend's pump threads
// (DESIGN.md §9): a pump with nothing due parks here on a timed futex
// wait; a producer that publishes work for it rings it.
//
// The parked pump also states what it is waiting for: `due`, the instant
// (ns since the Runtime's start) of the earliest work it already knows
// about, or kForever when it knows of none. A producer only rings when the
// work it published is due before that — anything due later is picked up
// when the park times out anyway — so a pump sleeping out a wire delay is
// not woken by every message sent to it.
//
// Memory-ordering argument (the publish / park pair). The hazard is the
// lost wakeup: the consumer checks for work, finds none, and parks just as
// the producer publishes and checks for a parked consumer. Each side writes
// one word and then reads the other side's — the Dekker shape, which
// release/acquire alone does not order (both reads may see old values).
// Here every one of the four operations is seq_cst:
//   * consumer: arm() sets kParked with a seq_cst RMW on `state_`, then
//     re-checks its inbound rings with seq_cst loads of their tails
//     (SpscRing::empty());
//   * producer: after pushing, re-publishes the ring's tail with a seq_cst
//     RMW (SpscRing::republish()), then ring_before() reads `state_` with a
//     seq_cst load.
// All seq_cst operations fall in one total order S consistent with each
// thread's program order. If the producer's load of `state_` comes after
// the consumer's arm in S, it reads kParked and wakes the consumer. If it
// comes before, then the producer's tail RMW precedes the consumer's tail
// load in S, so that load returns the published tail and the consumer does
// not sleep. Either way the work is seen. The producer's side writes only
// its own ring's tail; `state_` stays read-mostly, so a producer checking
// every destination it sent to costs no cache-line ping-pong.
//
// request_stop() and quiescence use ring() instead: their waker sets its
// flag and then clears kParked with a seq_cst RMW on `state_`. Against the
// consumer's arm RMW on the same word, whichever is later in `state_`'s
// modification order either reads kParked (and wakes) or reads from the
// other and synchronizes with it, so the consumer's re-check sees the flag.
// `due_` is stored before arm()'s RMW and read after the producer's load
// that observed it, which is acquire: the edge publishes `due_`. Reading a
// newer `due_` is harmless — that park was armed after the producer's load,
// and its re-check saw the work.
//
// No std::atomic_thread_fence is involved: GCC's ThreadSanitizer does not
// model fences, and every edge above is one it checks.
//
// `state_` is the futex word, so wait() returns as soon as a producer
// clears kParked, and a ring that lands between the re-check and the wait
// makes the wait return at once (the word no longer matches).
// Off Linux, wait() only yields: pumps then degrade to spinning.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <ctime>
#else
#include <thread>
#endif

namespace dqme::rt {

class alignas(64) Doorbell {
 public:
  static constexpr int64_t kForever = std::numeric_limits<int64_t>::max();

  // Consumer: announce a park waiting for work due at `due` (kForever when
  // nothing is known). The caller must re-check for work afterwards and
  // either disarm() or wait().
  void arm(int64_t due) {
    due_.store(due, std::memory_order_relaxed);
    state_.fetch_or(kParked, std::memory_order_seq_cst);
  }
  void disarm() { state_.fetch_and(~kParked, std::memory_order_seq_cst); }

  // Consumer: sleeps until `deadline` (a steady_clock instant; max() for no
  // timeout) unless rung first. May return early; callers re-check.
  void wait(std::chrono::steady_clock::time_point deadline) {
#if defined(__linux__)
    const bool timed = deadline != std::chrono::steady_clock::time_point::max();
    timespec ts{};
    if (timed) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          deadline.time_since_epoch())
                          .count();
      ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
      ts.tv_nsec = static_cast<long>(ns % 1'000'000'000);
    }
    // FUTEX_WAIT_BITSET takes an absolute CLOCK_MONOTONIC deadline, the
    // clock steady_clock reads on Linux.
    syscall(SYS_futex, reinterpret_cast<uint32_t*>(&state_),
            FUTEX_WAIT_BITSET_PRIVATE, kParked, timed ? &ts : nullptr, nullptr,
            FUTEX_BITSET_MATCH_ANY);
#else
    (void)deadline;
    std::this_thread::yield();
#endif
  }

  // Producer, after publishing work due at `due` with a seq_cst write the
  // consumer re-checks: wakes the consumer if it is parked waiting for
  // something later. Returns true when it woke it.
  bool ring_before(int64_t due) {
    if ((state_.load(std::memory_order_seq_cst) & kParked) == 0) return false;
    if (due >= due_.load(std::memory_order_relaxed)) return false;
    return ring();
  }
  // Stop / quiescence: wakes the consumer whatever it waits for. Returns
  // true when it was parked.
  bool ring() {
    if ((state_.fetch_and(~kParked, std::memory_order_seq_cst) & kParked) == 0)
      return false;
#if defined(__linux__)
    syscall(SYS_futex, reinterpret_cast<uint32_t*>(&state_),
            FUTEX_WAKE_PRIVATE, 1, nullptr, nullptr, 0);
#endif
    return true;
  }

 private:
  static constexpr uint32_t kParked = 1;

  static_assert(sizeof(std::atomic<uint32_t>) == sizeof(uint32_t) &&
                    std::atomic<uint32_t>::is_always_lock_free,
                "the futex word must be a plain 32-bit atomic");
  std::atomic<uint32_t> state_{0};
  std::atomic<int64_t> due_{kForever};
};

}  // namespace dqme::rt
