#include "trace.h"

#include <atomic>
#include <ostream>

#include "common/check.h"

namespace dqme::perf {

namespace {

std::atomic<uint64_t> g_next_tracer_id{1};

// The calling thread's accumulator for the tracer it last used. Keyed by
// tracer id, not address, so a new Tracer at a recycled address never
// reuses a stale entry.
struct LocalCache {
  uint64_t tracer_id = 0;
  ThreadTrace* tt = nullptr;
};
thread_local LocalCache t_cache;

}  // namespace

std::string_view to_string(Boundary b) {
  switch (b) {
    case Boundary::kSimLoop:
      return "sim.loop";
    case Boundary::kPoll:
      return "rt.poll";
    case Boundary::kHandler:
      return "mutex.handler";
    case Boundary::kStage:
      return "net.stage";
    case Boundary::kRequest:
      return "mutex.request";
    case Boundary::kRelease:
      return "mutex.release";
    case Boundary::kExplore:
      return "verify.explore";
  }
  return "?";
}

ThreadTrace::ThreadTrace(int tid, size_t ring_capacity)
    : tid_(tid), ring_(ring_capacity) {}

void ThreadTrace::begin(Boundary b) {
  DQME_CHECK_MSG(depth_ < kMaxDepth, "span stack overflow");
  Frame& f = stack_[depth_++];
  f.boundary = b;
  f.child_ns = 0;
  f.id = next_id_++;
  f.start = now_ns();
}

void ThreadTrace::end() {
  const int64_t t = now_ns();
  DQME_CHECK_MSG(depth_ > 0, "span end without begin");
  const Frame& f = stack_[--depth_];
  const int64_t dur = t - f.start;
  BoundaryStats& s = stats_[static_cast<size_t>(f.boundary)];
  ++s.count;
  s.total_ns += dur;
  s.self_ns += dur - f.child_ns;
  uint32_t parent = 0;
  if (depth_ > 0) {
    stack_[depth_ - 1].child_ns += dur;
    parent = stack_[depth_ - 1].id;
  }
  if (!ring_.empty()) {
    ring_[ring_next_] = Record{f.start, dur, f.id, parent, f.boundary};
    if (++ring_next_ == ring_.size()) {
      ring_next_ = 0;
      ring_wrapped_ = true;
    }
  }
}

void ThreadTrace::reset() {
  stats_ = {};
  msgs_ = {};
}

void ThreadTrace::write_chrome_events(std::ostream& os, int64_t origin_ns,
                                      bool& first) const {
  const size_t n = ring_wrapped_ ? ring_.size() : ring_next_;
  const size_t begin = ring_wrapped_ ? ring_next_ : 0;
  os << (first ? "\n" : ",\n")
     << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid_
     << ",\"args\":{\"name\":\"thread " << tid_ << "\"}}";
  first = false;
  for (size_t i = 0; i < n; ++i) {
    const Record& r = ring_[(begin + i) % ring_.size()];
    os << (first ? "\n" : ",\n") << "{\"name\":\"" << to_string(r.boundary)
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid_
       << ",\"ts\":" << static_cast<double>(r.start - origin_ns) / 1e3
       << ",\"dur\":" << static_cast<double>(r.dur) / 1e3
       << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent << "}}";
    first = false;
  }
}

Tracer::Tracer(size_t ring_capacity)
    : id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      ring_capacity_(ring_capacity) {}

ThreadTrace& Tracer::local() {
  if (t_cache.tracer_id == id_) return *t_cache.tt;
  std::lock_guard<std::mutex> g(mu_);
  threads_.push_back(std::make_unique<ThreadTrace>(
      static_cast<int>(threads_.size()), ring_capacity_));
  t_cache = {id_, threads_.back().get()};
  return *threads_.back();
}

BoundaryTotals Tracer::totals() const {
  std::lock_guard<std::mutex> g(mu_);
  BoundaryTotals out{};
  for (const auto& t : threads_)
    for (size_t b = 0; b < kNumBoundaries; ++b) {
      out[b].count += t->stats()[b].count;
      out[b].total_ns += t->stats()[b].total_ns;
      out[b].self_ns += t->stats()[b].self_ns;
    }
  return out;
}

MsgCounts Tracer::msg_counts() const {
  std::lock_guard<std::mutex> g(mu_);
  MsgCounts out{};
  for (const auto& t : threads_)
    for (size_t i = 0; i < out.size(); ++i) out[i] += t->msgs()[i];
  return out;
}

void Tracer::reset() {
  std::lock_guard<std::mutex> g(mu_);
  for (auto& t : threads_) t->reset();
}

void Tracer::write_chrome(std::ostream& os) const {
  std::lock_guard<std::mutex> g(mu_);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& t : threads_) t->write_chrome_events(os, origin_ns_, first);
  os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

}  // namespace dqme::perf
