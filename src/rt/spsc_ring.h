// Bounded lock-free single-producer/single-consumer ring buffer — the
// directed-channel primitive of the real-threads backend (DESIGN.md §9).
//
// One rt::Runtime channel (src -> dst) is one SpscRing: only src's pump
// thread pushes, only dst's pump thread pops, so the ring needs exactly one
// producer cursor and one consumer cursor and no CAS anywhere.
//
// Memory-ordering argument (the publish/consume pair):
//   * try_push writes the slot *before* publishing it with
//     tail_.store(release); try_pop observes the tail with load(acquire)
//     before reading the slot. The release/acquire edge on tail_ therefore
//     orders "slot fully written" before "slot read" — the only cross-
//     thread data handoff in the structure.
//   * Symmetrically, try_pop finishes reading the slot *before* retiring it
//     with head_.store(release); try_push observes head_ with load(acquire)
//     before overwriting a retired slot. That edge orders "slot fully read"
//     before "slot reused".
//   * Each thread reads its own cursor relaxed (no one else writes it).
// Cursors are free-running uint64_t (wrap after 2^64 ops — never in a run);
// the index is cursor & mask, so capacity must be a power of two.
//
// Cursors sit on separate cache lines to stop producer/consumer
// false sharing; the slot array is the only shared payload memory.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace dqme::rt {

template <typename T>
class SpscRing {
 public:
  // `capacity` must be a power of two (mask addressing).
  explicit SpscRing(size_t capacity)
      : slots_(capacity), mask_(capacity - 1) {
    DQME_CHECK_MSG(capacity >= 2 && (capacity & (capacity - 1)) == 0,
                   "SpscRing capacity must be a power of two >= 2, got "
                       << capacity);
  }

  // Rings are pinned in place once the Runtime wires its channel matrix;
  // moving one with a concurrent producer/consumer would be a race.
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  size_t capacity() const { return slots_.size(); }

  // Producer side. Returns false when the ring is full (caller spills).
  bool try_push(const T& v) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) >= slots_.size())
      return false;
    slots_[tail & mask_] = v;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Consumer side. Returns false when the ring is empty.
  bool try_pop(T& out) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) return false;
    out = slots_[head & mask_];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Consumer-side emptiness probe (exact for the consumer: only it moves
  // head_, and a false "empty" can only mean the producer published later).
  // The tail load is seq_cst so that it pairs with republish().
  bool empty() const {
    return head_.load(std::memory_order_relaxed) ==
           tail_.load(std::memory_order_seq_cst);
  }

  // Producer side: re-publishes the tail with a seq_cst read-modify-write,
  // ordering every push so far before the caller's later seq_cst loads —
  // the producer half of rt::Doorbell's park/publish pair (rt/doorbell.h),
  // whose consumer half arms its doorbell and then calls empty().
  void republish() { tail_.fetch_add(0, std::memory_order_seq_cst); }

 private:
  std::vector<T> slots_;
  const size_t mask_;
  alignas(64) std::atomic<uint64_t> head_{0};  // consumer cursor
  alignas(64) std::atomic<uint64_t> tail_{0};  // producer cursor
};

}  // namespace dqme::rt
