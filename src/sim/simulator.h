// Deterministic discrete-event simulator.
//
// A Simulator owns a virtual clock and a pending-event store. Events
// scheduled for the same instant fire in scheduling order (a monotonically
// increasing tie-break sequence), so a run is a pure function of its
// inputs — the property every reproduction experiment in this repo relies
// on.
//
// Hot-path layout: events live in a slab of reusable slots (index-linked
// free list) addressed by a hand-rolled binary heap of (when, seq, slot)
// entries. Callbacks are stored inline in the slab through sim::Callback's
// small-buffer storage, so steady-state scheduling performs no heap
// allocation. cancel() tombstones the heap entry in O(1); when tombstones
// outnumber live entries the heap is compacted in place, so a cancel-heavy
// workload (timeouts that almost never fire) keeps bounded memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace dqme::sim {

// Move-only callable with inline storage for captures up to kInlineSize
// bytes; larger callables fall back to one heap allocation. Every lambda on
// the simulation hot path (network deliveries, workload timers) fits
// inline.
class Callback {
 public:
  static constexpr size_t kInlineSize = 48;

  Callback() = default;
  Callback(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  Callback(Callback&& other) noexcept { move_from(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  Callback& operator=(std::nullptr_t) {
    reset();
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() {
    DQME_CHECK(ops_ != nullptr);
    ops_->invoke(buf_);
  }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    // Move-constructs *from into *to, then destroys *from.
    void (*relocate)(void* from, void* to);
    void (*destroy)(void* self);
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineSize &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* self) { (*std::launder(reinterpret_cast<Fn*>(self)))(); },
      [](void* from, void* to) {
        Fn* src = std::launder(reinterpret_cast<Fn*>(from));
        ::new (to) Fn(std::move(*src));
        src->~Fn();
      },
      [](void* self) { std::launder(reinterpret_cast<Fn*>(self))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* self) { (**std::launder(reinterpret_cast<Fn**>(self)))(); },
      [](void* from, void* to) {
        Fn** src = std::launder(reinterpret_cast<Fn**>(from));
        ::new (to) Fn*(*src);
      },
      [](void* self) { delete *std::launder(reinterpret_cast<Fn**>(self)); },
  };

  void move_from(Callback& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(other.buf_, buf_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

class Simulator {
 public:
  using EventId = uint64_t;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  // Schedules `fn` to run at absolute virtual time `when` (>= now).
  EventId schedule_at(Time when, Callback fn);

  // Schedules `fn` to run `delay` ticks from now (delay >= 0).
  EventId schedule_after(Time delay, Callback fn) {
    DQME_CHECK(delay >= 0);
    return schedule_at(now_ + delay, std::move(fn));
  }

  // Cancels a pending event. Returns false if it already fired or was
  // already cancelled. O(1): the heap entry is tombstoned, not removed;
  // the slab slot (and its callback) is reclaimed immediately.
  bool cancel(EventId id);

  // Runs until the queue drains or stop() is called.
  // Returns the number of events executed.
  uint64_t run();

  // Runs events with time <= `until`; the clock then reads `until` unless
  // stop() fired earlier. Returns the number of events executed.
  uint64_t run_until(Time until);

  // Executes exactly one event if any is pending. Returns true if one ran.
  bool step();

  // Checkpointing (verify::World): takes over `other`'s clock and counters.
  // Both simulators must be idle — a pending callback captures its owner's
  // pointers and has no meaning in another world — so every slab slot is
  // free and the heap holds at most tombstones: nothing else to copy.
  void copy_state_from(const Simulator& other);

  // Makes run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }
  void clear_stop() { stopped_ = false; }

  // Number of live (non-cancelled) pending events.
  size_t pending() const { return live_; }
  bool idle() const { return pending() == 0; }

  uint64_t events_executed() const { return executed_; }

  // Introspection for memory-bound regression tests and diagnostics.
  size_t heap_size() const { return heap_.size(); }      // incl. tombstones
  size_t slab_capacity() const { return slots_.size(); }
  uint64_t compactions() const { return compactions_; }

  // Profiling counters for the observability layer (src/obs): lifetime
  // totals and high-water marks, maintained unconditionally — each is one
  // increment or compare on an already-memory-bound path.
  uint64_t scheduled_total() const { return next_seq_ - 1; }
  uint64_t cancelled_total() const { return cancelled_; }
  size_t peak_heap() const { return peak_heap_; }  // deepest heap, w/ tombstones
  // Fraction of scheduled events that were cancelled instead of fired —
  // the load the tombstone-compaction machinery exists to absorb.
  double tombstone_ratio() const {
    return scheduled_total() > 0 ? static_cast<double>(cancelled_) /
                                       static_cast<double>(scheduled_total())
                                 : 0;
  }

 private:
  static constexpr uint32_t kNil = 0xffffffffu;
  // Below this many heap entries, compaction isn't worth the pass.
  static constexpr size_t kMinCompactSize = 64;

  struct Slot {
    Callback cb;
    Time when = 0;
    uint64_t seq = 0;        // global scheduling order; never reused
    uint32_t gen = 1;        // EventId validity guard across slot reuse
    uint32_t next_free = kNil;
    bool armed = false;      // slot holds a live pending event
  };

  struct HeapEntry {
    Time when;
    uint64_t seq;
    uint32_t slot;
    // Min-order on (when, seq): seq equality is impossible.
    bool before(const HeapEntry& o) const {
      if (when != o.when) return when < o.when;
      return seq < o.seq;
    }
  };

  static EventId make_id(uint32_t gen, uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  // True iff the heap entry still refers to a live (uncancelled) event.
  bool entry_live(const HeapEntry& e) const {
    const Slot& s = slots_[e.slot];
    return s.armed && s.seq == e.seq;
  }

  uint32_t acquire_slot();
  void release_slot(uint32_t idx);

  void heap_push(HeapEntry e);
  void heap_sift_down(size_t i);
  // Pops heap entries until the top is live; drops tombstones.
  void skim();
  // Removes all tombstoned entries and re-heapifies (Floyd build).
  void compact();
  void maybe_compact() {
    if (heap_.size() >= kMinCompactSize && tombstones_ * 2 > heap_.size())
      compact();
  }

  Time now_ = 0;
  uint64_t next_seq_ = 1;
  bool stopped_ = false;
  uint64_t executed_ = 0;
  size_t live_ = 0;        // armed slots == non-tombstone heap entries
  size_t tombstones_ = 0;  // cancelled entries still sitting in the heap
  uint64_t compactions_ = 0;
  uint64_t cancelled_ = 0;
  size_t peak_heap_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNil;
};

}  // namespace dqme::sim
