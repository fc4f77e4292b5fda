// Causal critical-path attribution: the per-request delay-budget engine.
//
// An event log (obs/event_log.h) carries a causal predecessor index on
// every event (Event::cause, threaded through net::Network's send/delivery
// context). This module walks those links backwards from every entry to
// reconstruct the critical path of the request — the single causal chain
// that *determined* when the CS was entered — and buckets every tick of
// [issued, entered] as one of:
//
//   kWire    wire transit of a chain message (request, grant, release, ...)
//   kQueue   waiting at a site: the arbiter held the request behind the
//            current lock holder, or a handler sat between delivery and
//            its next send
//   kHolder  predecessor CS occupancy (the holder's enter..exit tenure)
//   kProxy   wire transit of a §3 proxy-forwarded reply specifically —
//            split from kWire so Table 1's 1·T mechanism is its own row
//   kOther   residue the chain could not attribute (predecessor outside
//            the recorded window, chains cut by the capacity cap)
//
// Segments tile [issued, entered] exactly — conservation (bucket sums ==
// the span's measured waiting time, to the tick) holds by construction and
// is asserted by tests and scripts/validate_critpath.py.
//
// The Table-1 conformance gate reads the *tail* of a contended path: the
// wire hops after the last kHolder segment. Cao–Singhal's proxy handoff
// makes that exactly one hop (exit -> proxy reply -> enter, 1·T); Maekawa
// relays through the arbiter (exit -> release -> arbiter -> reply, 2·T).
//
// CritStats aggregates paths into integer tick/edge counters plus a log2
// tail-delay histogram in units of T; merge() is element-wise summation in
// result-index order, so bench JSON embeddings are byte-identical for any
// --jobs split.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "obs/span.h"

namespace dqme::obs {

enum class CritBucket : uint8_t {
  kWire,
  kQueue,
  kHolder,
  kProxy,
  kOther,
};
inline constexpr size_t kNumCritBuckets = 5;

std::string_view to_string(CritBucket b);

// One attributed stretch of a request's waiting time. Segments are
// half-open [begin, end) and consecutive: segments[i].end ==
// segments[i+1].begin, segments.front().begin == issued,
// segments.back().end == entered.
struct CritSegment {
  Time begin = 0;
  Time end = 0;
  CritBucket bucket = CritBucket::kOther;
  SpanEdge via = SpanEdge::kIssue;  // the edge that produced the segment
  SiteId site = kNoSite;  // where the time was spent (receiver / holder)
  SiteId peer = kNoSite;  // wire segments: the sender
  // Index into the event log for wire/proxy/holder segments (lets
  // dqme_trace tag exactly these flow arrows); -1 for fillers.
  int32_t event = -1;

  Time duration() const { return end - begin; }
};

struct CritPath {
  SpanId span = kNoSpan;
  LockId lock = kLock0;
  SiteId site = kNoSite;  // the requester
  Time issued = 0;
  Time entered = 0;
  bool contended = false;  // path crosses a predecessor's CS tenure
  // Tail of a contended path: everything after the last kHolder segment.
  // tail_hops counts its kWire/kProxy segments (Table 1: Cao–Singhal 1,
  // Maekawa 2); tail_delay is entered - the holder's exit (the measured
  // synchronization delay of this handoff).
  int tail_hops = 0;
  Time tail_delay = 0;
  std::vector<CritSegment> segments;

  Time waiting() const { return entered - issued; }
  Time in_bucket(CritBucket b) const;
};

// Reconstructs every completed request's critical path from a recorded
// event log (EventLog::events() or Recording::events).
// Requests whose issue fell outside the recorded window are skipped —
// their [issued, entered] interval cannot be tiled honestly.
std::vector<CritPath> extract_critical_paths(
    const std::vector<Event>& events);

// ASCII render of one path, one line per segment, durations also in units
// of T (mean_delay; pass 0 to omit the T column).
void render_crit_path(std::ostream& os, const CritPath& p, Time mean_delay);

// Mergeable delay-budget aggregate. All state is integer tick/edge
// counters (plus a fixed-spec log2 histogram of tail delay in T units, so
// bucket boundaries are independent of T) — merge() is element-wise
// summation, making the JSON embedding deterministic for any --jobs.
class CritStats {
 public:
  CritStats() = default;                 // disabled: record/merge are no-ops
  explicit CritStats(Time mean_delay);   // enabled; mean_delay = the run's T

  bool enabled() const { return mean_delay_ > 0; }
  Time mean_delay() const { return mean_delay_; }

  void record(const CritPath& p);
  void merge(const CritStats& other);
  void write_json(std::ostream& os) const;

  uint64_t paths() const { return paths_; }
  uint64_t contended() const { return contended_; }
  uint64_t waiting_ticks() const { return waiting_ticks_; }
  // Ticks the extractor failed to tile (always 0: segments tile the
  // interval by construction; kept as an honest cross-check counter).
  uint64_t residual_ticks() const { return residual_ticks_; }
  uint64_t tail_ticks() const { return tail_ticks_; }
  uint64_t ticks(CritBucket b) const {
    return ticks_[static_cast<size_t>(b)];
  }
  uint64_t edges(CritBucket b) const {
    return edges_[static_cast<size_t>(b)];
  }
  // Contended paths by tail hop count; index 4 is "4 or more".
  const std::array<uint64_t, 5>& tail_hops() const { return tail_hops_; }
  // Mean tail delay over contended paths, in units of T — the number the
  // Table-1 gate compares against obs::predict()'s sync delay.
  double mean_tail_in_t() const;
  const Histogram& tail_delay_t() const { return tail_delay_t_; }

 private:
  struct PerLock {
    uint64_t paths = 0;
    uint64_t contended = 0;
    std::array<uint64_t, kNumCritBuckets> ticks{};
  };
  static constexpr size_t kMaxLockRows = 16;

  PerLock& lock_row(LockId lock);

  Time mean_delay_ = 0;  // 0 = disabled
  uint64_t paths_ = 0;
  uint64_t contended_ = 0;
  uint64_t waiting_ticks_ = 0;
  uint64_t residual_ticks_ = 0;
  uint64_t tail_ticks_ = 0;
  std::array<uint64_t, kNumCritBuckets> ticks_{};
  std::array<uint64_t, kNumCritBuckets> edges_{};
  std::array<uint64_t, 5> tail_hops_{};
  Histogram tail_delay_t_;  // log2, lo = 0.25 T
  std::map<LockId, PerLock> per_lock_;  // capped at kMaxLockRows
  PerLock overflow_;                    // everything past the cap
  bool overflow_used_ = false;
};

}  // namespace dqme::obs
