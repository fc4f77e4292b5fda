// Per-layer tracing for dqme_bench, applied from outside the layers.
//
// The benchmark times only calls it makes itself or intercepts at the two
// existing seams: net::Executor (every protocol send goes through it) and
// net::NetSite (every delivery comes out of it). TracedExecutor and
// TracedSite are forwarding decorators on those seams; Span brackets the
// bench's own calls (the simulator window, the rt poll step, request_cs /
// release_cs, the explorer run).
//
// Each thread that opens a span gets its own ThreadTrace from the Tracer:
// a span stack (so a span's self time excludes its children), per-boundary
// count / total / self nanoseconds, delivered-message counts by type, and a
// bounded ring of the most recent spans for the Chrome-trace export. Nothing
// is shared between threads on the hot path; totals() sums the per-thread
// state once the traced threads are quiescent (joined, or the single
// simulator thread between calls).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "net/executor.h"

namespace dqme::perf {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The boundaries a span can mark.
enum class Boundary : uint8_t {
  kSimLoop,   // Simulator::run_until over the measured window
  kPoll,      // the bench's rt poll step on a pump thread
  kHandler,   // NetSite::on_message (protocol message handler)
  kStage,     // Executor::send / send_bundle (backend staging)
  kRequest,   // MutexSite::request_cs called by the rt poll step
  kRelease,   // MutexSite::release_cs called by the rt poll step
  kExplore,   // ParallelExplorer::run
};
inline constexpr size_t kNumBoundaries = 7;
std::string_view to_string(Boundary b);

struct BoundaryStats {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
using BoundaryTotals = std::array<BoundaryStats, kNumBoundaries>;
using MsgCounts = std::array<uint64_t, net::kNumMsgTypes>;

class ThreadTrace {
 public:
  ThreadTrace(int tid, size_t ring_capacity);

  void begin(Boundary b);
  void end();
  void count_msg(net::MsgType t) { ++msgs_[static_cast<size_t>(t)]; }

  const BoundaryTotals& stats() const { return stats_; }
  const MsgCounts& msgs() const { return msgs_; }
  void reset();
  void write_chrome_events(std::ostream& os, int64_t origin_ns,
                           bool& first) const;

 private:
  struct Frame {
    int64_t start = 0;
    int64_t child_ns = 0;
    uint32_t id = 0;
    Boundary boundary = Boundary::kSimLoop;
  };
  // One finished span; `parent` is the id of the enclosing span (0 = root).
  struct Record {
    int64_t start = 0;
    int64_t dur = 0;
    uint32_t id = 0;
    uint32_t parent = 0;
    Boundary boundary = Boundary::kSimLoop;
  };
  static constexpr size_t kMaxDepth = 32;

  int tid_;
  std::array<Frame, kMaxDepth> stack_{};
  size_t depth_ = 0;
  uint32_t next_id_ = 1;
  BoundaryTotals stats_{};
  MsgCounts msgs_{};
  std::vector<Record> ring_;
  size_t ring_next_ = 0;
  bool ring_wrapped_ = false;
};

class Tracer {
 public:
  explicit Tracer(size_t ring_capacity = 1 << 14);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The calling thread's accumulator, created on first use.
  ThreadTrace& local();

  // Sums over every thread; call only while the traced threads are idle.
  BoundaryTotals totals() const;
  MsgCounts msg_counts() const;
  void reset();

  // Chrome trace-event JSON of the spans still in the rings.
  void write_chrome(std::ostream& os) const;

 private:
  const uint64_t id_;
  const size_t ring_capacity_;
  const int64_t origin_ns_ = now_ns();
  mutable std::mutex mu_;  // guards threads_ (registration only)
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

// RAII span; a null tracer makes it a no-op (the untraced assembly).
class Span {
 public:
  Span(Tracer* tracer, Boundary b)
      : tt_(tracer != nullptr ? &tracer->local() : nullptr) {
    if (tt_ != nullptr) tt_->begin(b);
  }
  Span(ThreadTrace& tt, Boundary b) : tt_(&tt) { tt_->begin(b); }
  ~Span() {
    if (tt_ != nullptr) tt_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadTrace* tt_;
};

// Forwarding decorator on the execution-backend seam: times every send.
// Protocol sites are constructed against it; everything else forwards.
class TracedExecutor final : public net::Executor {
 public:
  TracedExecutor(net::Executor& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  int size() const override { return inner_.size(); }
  Time now() const override { return inner_.now(); }
  void attach(SiteId id, net::NetSite* site) override {
    inner_.attach(id, site);
  }
  void send(SiteId src, SiteId dst, const net::Message& m,
            LockId lock) override {
    Span s(&tracer_, Boundary::kStage);
    inner_.send(src, dst, m, lock);
  }
  using net::Executor::send_bundle;
  void send_bundle(SiteId src, SiteId dst, const net::Message* msgs, size_t n,
                   LockId lock) override {
    Span s(&tracer_, Boundary::kStage);
    inner_.send_bundle(src, dst, msgs, n, lock);
  }
  net::KvFields& attach_kv(net::Message& m) override {
    return inner_.attach_kv(m);
  }
  net::TokenPayload& attach_token(net::Message& m) override {
    return inner_.attach_token(m);
  }
  net::KvFields read_kv(const net::Message& m) const override {
    return inner_.read_kv(m);
  }
  net::TokenPayload take_token(const net::Message& m) override {
    return inner_.take_token(m);
  }
  uint64_t schedule_timeout(SiteId site, Time delay,
                            sim::Callback fn) override {
    return inner_.schedule_timeout(site, delay, std::move(fn));
  }

 private:
  net::Executor& inner_;
  Tracer& tracer_;
};

// Forwarding decorator on the receiver seam: the backend delivers to it and
// it times (and counts by type) the protocol handler it wraps.
class TracedSite final : public net::NetSite {
 public:
  TracedSite(net::NetSite& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void on_message(const net::Message& m, LockId lock) override {
    ThreadTrace& tt = tracer_.local();
    tt.count_msg(m.type);
    Span s(tt, Boundary::kHandler);
    inner_.on_message(m, lock);
  }

 private:
  net::NetSite& inner_;
  Tracer& tracer_;
};

}  // namespace dqme::perf
