#include "sim/simulator.h"

#include <algorithm>
#include <utility>

namespace dqme::sim {

uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNil) {
    uint32_t idx = free_head_;
    free_head_ = slots_[idx].next_free;
    slots_[idx].next_free = kNil;
    return idx;
  }
  DQME_CHECK_MSG(slots_.size() < kNil, "event slab exhausted");
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(uint32_t idx) {
  Slot& s = slots_[idx];
  s.cb.reset();
  s.armed = false;
  s.gen += 1;  // invalidate outstanding EventIds for this slot
  s.next_free = free_head_;
  free_head_ = idx;
}

Simulator::EventId Simulator::schedule_at(Time when, Callback fn) {
  DQME_CHECK_MSG(when >= now_, "event scheduled in the past: " << when
                               << " < now " << now_);
  DQME_CHECK(fn);
  const uint32_t idx = acquire_slot();
  Slot& s = slots_[idx];
  s.cb = std::move(fn);
  s.when = when;
  s.seq = next_seq_++;
  s.armed = true;
  heap_push(HeapEntry{when, s.seq, idx});
  if (heap_.size() > peak_heap_) peak_heap_ = heap_.size();
  ++live_;
  return make_id(s.gen, idx);
}

bool Simulator::cancel(EventId id) {
  const uint32_t idx = static_cast<uint32_t>(id & 0xffffffffu);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (idx >= slots_.size()) return false;
  Slot& s = slots_[idx];
  if (!s.armed || s.gen != gen) return false;
  release_slot(idx);  // the heap entry stays behind as a tombstone
  --live_;
  ++tombstones_;
  ++cancelled_;
  maybe_compact();
  return true;
}

void Simulator::heap_push(HeapEntry e) {
  heap_.push_back(e);
  size_t i = heap_.size() - 1;
  while (i > 0) {
    size_t parent = (i - 1) / 2;
    if (!heap_[i].before(heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void Simulator::heap_sift_down(size_t i) {
  const size_t n = heap_.size();
  for (;;) {
    size_t best = i;
    const size_t l = 2 * i + 1, r = 2 * i + 2;
    if (l < n && heap_[l].before(heap_[best])) best = l;
    if (r < n && heap_[r].before(heap_[best])) best = r;
    if (best == i) return;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

void Simulator::skim() {
  while (!heap_.empty() && !entry_live(heap_.front())) {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) heap_sift_down(0);
    --tombstones_;
  }
}

void Simulator::compact() {
  auto dead = std::remove_if(
      heap_.begin(), heap_.end(),
      [this](const HeapEntry& e) { return !entry_live(e); });
  heap_.erase(dead, heap_.end());
  // Floyd heapify: O(n), cheaper than re-pushing every survivor.
  for (size_t i = heap_.size() / 2; i-- > 0;) heap_sift_down(i);
  tombstones_ = 0;
  ++compactions_;
  // A burst of cancellations can leave far more capacity than the steady
  // state needs; let it go so cancel-heavy runs keep bounded memory.
  if (heap_.capacity() > 4 * (heap_.size() + kMinCompactSize))
    heap_.shrink_to_fit();
}

bool Simulator::step() {
  skim();
  if (heap_.empty()) return false;
  const HeapEntry e = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) heap_sift_down(0);

  Slot& s = slots_[e.slot];
  Callback fn = std::move(s.cb);
  release_slot(e.slot);
  --live_;
  now_ = e.when;
  ++executed_;
  fn();
  return true;
}

uint64_t Simulator::run() {
  uint64_t n = 0;
  while (!stopped_ && step()) ++n;
  return n;
}

uint64_t Simulator::run_until(Time until) {
  DQME_CHECK(until >= now_);
  uint64_t n = 0;
  while (!stopped_) {
    skim();
    if (heap_.empty() || heap_.front().when > until) break;
    step();
    ++n;
  }
  if (!stopped_ && now_ < until) now_ = until;
  return n;
}

void Simulator::copy_state_from(const Simulator& other) {
  DQME_CHECK_MSG(idle() && other.idle(),
                 "copy_state_from with events pending");
  now_ = other.now_;
  next_seq_ = other.next_seq_;
  stopped_ = other.stopped_;
  executed_ = other.executed_;
  compactions_ = other.compactions_;
  cancelled_ = other.cancelled_;
  peak_heap_ = other.peak_heap_;
  heap_.clear();  // tombstones only
  tombstones_ = 0;
}

}  // namespace dqme::sim
