#include "obs/critpath.h"

#include <algorithm>
#include <cstdio>

namespace dqme::obs {

namespace {

// A reconstruction that walks more than this many cause links is cut and
// the remainder attributed to kOther. Cause indices strictly decrease
// along a chain (an event's cause was recorded before it), so cycles are
// impossible; this only bounds pathological hop counts.
constexpr int kMaxChainSteps = 128;

struct Key {  // (lock, span) — span ids alone collide across locks
  LockId lock;
  SpanId span;
  bool operator<(const Key& o) const {
    return lock != o.lock ? lock < o.lock : span < o.span;
  }
};

std::string in_t(Time ticks, Time mean_delay) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f",
                static_cast<double>(ticks) / static_cast<double>(mean_delay));
  return buf;
}

}  // namespace

std::string_view to_string(CritBucket b) {
  switch (b) {
    case CritBucket::kWire:   return "wire";
    case CritBucket::kQueue:  return "queue";
    case CritBucket::kHolder: return "holder";
    case CritBucket::kProxy:  return "proxy";
    case CritBucket::kOther:  return "other";
  }
  return "unknown";
}

Time CritPath::in_bucket(CritBucket b) const {
  Time t = 0;
  for (const CritSegment& s : segments)
    if (s.bucket == b) t += s.duration();
  return t;
}

namespace {

// Walks the cause chain backwards from one kEnter event, consuming
// [issued, entered] from the top down. `consume` clips monotonically, so
// the emitted segments always tile the interval exactly — conservation is
// structural, not a property the chain has to earn.
CritPath build_path(const std::vector<Event>& ev, int32_t enter_idx,
                    Time issued, const std::map<Key, Time>& last_enter,
                    const std::map<Key, std::vector<int32_t>>& requests) {
  const Event& enter = ev[static_cast<size_t>(enter_idx)];
  CritPath p;
  p.span = enter.span;
  p.lock = enter.lock;
  p.site = enter.site;
  p.issued = issued;
  p.entered = enter.at;

  std::vector<CritSegment> segs;  // built latest-first, reversed at the end
  Time hi = p.entered;
  auto consume = [&](Time lo, CritBucket bucket, SpanEdge via, SiteId site,
                     SiteId peer, int32_t event) {
    if (lo < p.issued) lo = p.issued;
    if (lo >= hi) return;
    segs.push_back(CritSegment{lo, hi, bucket, via, site, peer, event});
    hi = lo;
  };

  // Below the kHolder segment sits our own request's journey: wire
  // transit to the granting site plus the queue wait there. Prefer the
  // request delivered to the arbiter the granting message names (quorum
  // algorithms); token holders name no arbiter, so fall back to the
  // granting message's sender, then to the last request on record.
  auto fill_request = [&](SiteId arbiter, SiteId sender) {
    auto it = requests.find(Key{p.lock, p.span});
    int32_t pick = -1;
    if (it != requests.end()) {
      for (int32_t idx : it->second)
        if (arbiter != kNoSite && ev[static_cast<size_t>(idx)].site == arbiter)
          pick = idx;
      if (pick < 0)
        for (int32_t idx : it->second)
          if (sender != kNoSite && ev[static_cast<size_t>(idx)].site == sender)
            pick = idx;
      if (pick < 0 && !it->second.empty()) pick = it->second.back();
    }
    if (pick >= 0) {
      const Event& r = ev[static_cast<size_t>(pick)];
      const SpanEdge via = edge_of(r);
      consume(r.at, CritBucket::kQueue, via, r.site, kNoSite, -1);
      consume(r.msg.sent_at, CritBucket::kWire, via, r.site, r.msg.src, pick);
    }
  };

  SiteId grant_arbiter = kNoSite;
  SiteId grant_sender = kNoSite;
  bool saw_wire = false;
  int32_t cur = enter.cause;
  for (int steps = 0;
       hi > p.issued && cur >= 0 && cur < enter_idx && steps < kMaxChainSteps;
       ++steps) {
    const Event& c = ev[static_cast<size_t>(cur)];
    const SpanEdge via = edge_of(c);
    if (c.delivered()) {
      if (!saw_wire) {  // the granting message is the first hop walked
        saw_wire = true;
        grant_arbiter = c.msg.arbiter;
        grant_sender = c.msg.src;
      }
      // Gap between this delivery and the next chain send: handler /
      // queue time at the receiver.
      consume(c.at, CritBucket::kQueue, via, c.site, kNoSite, -1);
      const bool proxy = via == SpanEdge::kProxyGrant;
      consume(c.msg.sent_at, proxy ? CritBucket::kProxy : CritBucket::kWire,
              via, c.site, c.msg.src, cur);
      cur = c.cause;
      continue;
    }
    if (via == SpanEdge::kExit) {
      // Predecessor CS occupancy: the chain was enabled by this holder
      // leaving. Tenure = the holder span's own enter..exit.
      consume(c.at, CritBucket::kQueue, via, c.site, kNoSite, -1);
      auto he = last_enter.find(Key{c.lock, c.span});
      const Time henter = he != last_enter.end() ? he->second : c.at;
      consume(henter, CritBucket::kHolder, via, c.site, kNoSite, cur);
      fill_request(grant_arbiter, grant_sender);
      break;
    }
    if (via == SpanEdge::kIssue && c.span == p.span && c.lock == p.lock)
      break;  // reached our own root: everything below is already tiled
    // Unexpected site edge on the chain (enter/abort/foreign issue):
    // attribute the gap above it honestly and keep following.
    consume(c.at, CritBucket::kOther, via, c.site, kNoSite, -1);
    cur = c.cause;
  }
  // Whatever the chain could not reach (predecessors recorded before the
  // window, cut chains) is unattributable — never silently dropped.
  consume(p.issued, CritBucket::kOther, SpanEdge::kIssue, p.site, kNoSite, -1);

  std::reverse(segs.begin(), segs.end());
  p.segments = std::move(segs);

  int last_holder = -1;
  for (size_t i = 0; i < p.segments.size(); ++i)
    if (p.segments[i].bucket == CritBucket::kHolder)
      last_holder = static_cast<int>(i);
  if (last_holder >= 0) {
    p.contended = true;
    p.tail_delay =
        p.entered - p.segments[static_cast<size_t>(last_holder)].end;
    for (size_t i = static_cast<size_t>(last_holder) + 1;
         i < p.segments.size(); ++i)
      if (p.segments[i].bucket == CritBucket::kWire ||
          p.segments[i].bucket == CritBucket::kProxy)
        ++p.tail_hops;
  }
  return p;
}

}  // namespace

std::vector<CritPath> extract_critical_paths(
    const std::vector<Event>& events) {
  std::map<Key, Time> last_issue;
  std::map<Key, Time> last_enter;  // kept past exit: holder tenure lookups
  std::map<Key, std::vector<int32_t>> requests;
  std::vector<CritPath> out;
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    switch (edge_of(e)) {
      case SpanEdge::kIssue:
        last_issue[Key{e.lock, e.span}] = e.at;
        requests[Key{e.lock, e.span}].clear();
        break;
      case SpanEdge::kRequest:
      case SpanEdge::kTokenReq:
        if (e.span != kNoSpan)
          requests[Key{e.lock, e.span}].push_back(static_cast<int32_t>(i));
        break;
      case SpanEdge::kEnter: {
        last_enter[Key{e.lock, e.span}] = e.at;
        auto it = last_issue.find(Key{e.lock, e.span});
        if (it == last_issue.end()) break;  // issued before the window
        out.push_back(build_path(events, static_cast<int32_t>(i), it->second,
                                 last_enter, requests));
        break;
      }
      case SpanEdge::kExit:
      case SpanEdge::kAbort:
        last_issue.erase(Key{e.lock, e.span});
        requests.erase(Key{e.lock, e.span});
        break;
      default:
        break;
    }
  }
  return out;
}

void render_crit_path(std::ostream& os, const CritPath& p, Time mean_delay) {
  os << "span " << format_span(p.span) << "  lock " << p.lock << "  site "
     << p.site << "  waiting " << p.waiting() << " ticks";
  if (mean_delay > 0) os << " (" << in_t(p.waiting(), mean_delay) << " T)";
  if (p.contended) {
    os << "  contended, tail " << p.tail_hops
       << (p.tail_hops == 1 ? " hop" : " hops");
    if (mean_delay > 0) os << " = " << in_t(p.tail_delay, mean_delay) << " T";
  }
  os << "\n";
  for (const CritSegment& s : p.segments) {
    char head[64];
    std::snprintf(head, sizeof head, "  +%-8lld %-6s %-12s",
                  static_cast<long long>(s.begin - p.issued),
                  std::string(to_string(s.bucket)).c_str(),
                  std::string(to_string(s.via)).c_str());
    os << head;
    if (s.peer != kNoSite)
      os << s.peer << " -> " << s.site;
    else if (s.site != kNoSite)
      os << "@" << s.site;
    os << "  " << s.duration() << " ticks";
    if (mean_delay > 0) os << " (" << in_t(s.duration(), mean_delay) << " T)";
    os << "\n";
  }
}

CritStats::CritStats(Time mean_delay)
    : mean_delay_(mean_delay), tail_delay_t_(Histogram::log2(0.25, 16)) {
  DQME_CHECK(mean_delay > 0);
}

CritStats::PerLock& CritStats::lock_row(LockId lock) {
  auto it = per_lock_.find(lock);
  if (it != per_lock_.end()) return it->second;
  if (per_lock_.size() < kMaxLockRows)
    return per_lock_.emplace(lock, PerLock{}).first->second;
  overflow_used_ = true;
  return overflow_;
}

void CritStats::record(const CritPath& p) {
  if (!enabled()) return;
  ++paths_;
  waiting_ticks_ += static_cast<uint64_t>(p.waiting());
  PerLock& row = lock_row(p.lock);
  ++row.paths;
  Time tiled = 0;
  for (const CritSegment& s : p.segments) {
    const auto b = static_cast<size_t>(s.bucket);
    ticks_[b] += static_cast<uint64_t>(s.duration());
    row.ticks[b] += static_cast<uint64_t>(s.duration());
    ++edges_[b];
    tiled += s.duration();
  }
  // Structurally zero (segments tile [issued, entered]); counted honestly
  // so tests and validate_critpath.py can assert it instead of trusting.
  residual_ticks_ += static_cast<uint64_t>(
      p.waiting() > tiled ? p.waiting() - tiled : tiled - p.waiting());
  if (p.contended) {
    ++contended_;
    ++row.contended;
    tail_ticks_ += static_cast<uint64_t>(p.tail_delay);
    ++tail_hops_[static_cast<size_t>(std::min(p.tail_hops, 4))];
    tail_delay_t_.record(static_cast<double>(p.tail_delay) /
                         static_cast<double>(mean_delay_));
  }
}

void CritStats::merge(const CritStats& other) {
  if (!other.enabled()) return;
  if (!enabled()) {
    *this = other;
    return;
  }
  DQME_CHECK_MSG(mean_delay_ == other.mean_delay_,
                 "merging critpath stats with different T: "
                     << mean_delay_ << " vs " << other.mean_delay_);
  paths_ += other.paths_;
  contended_ += other.contended_;
  waiting_ticks_ += other.waiting_ticks_;
  residual_ticks_ += other.residual_ticks_;
  tail_ticks_ += other.tail_ticks_;
  for (size_t b = 0; b < kNumCritBuckets; ++b) {
    ticks_[b] += other.ticks_[b];
    edges_[b] += other.edges_[b];
  }
  for (size_t i = 0; i < tail_hops_.size(); ++i)
    tail_hops_[i] += other.tail_hops_[i];
  tail_delay_t_.merge(other.tail_delay_t_);
  for (const auto& [lock, row] : other.per_lock_) {
    PerLock& mine = lock_row(lock);
    mine.paths += row.paths;
    mine.contended += row.contended;
    for (size_t b = 0; b < kNumCritBuckets; ++b)
      mine.ticks[b] += row.ticks[b];
  }
  if (other.overflow_used_) {
    overflow_used_ = true;
    overflow_.paths += other.overflow_.paths;
    overflow_.contended += other.overflow_.contended;
    for (size_t b = 0; b < kNumCritBuckets; ++b)
      overflow_.ticks[b] += other.overflow_.ticks[b];
  }
}

double CritStats::mean_tail_in_t() const {
  if (contended_ == 0 || mean_delay_ == 0) return 0;
  return static_cast<double>(tail_ticks_) /
         (static_cast<double>(contended_) * static_cast<double>(mean_delay_));
}

namespace {

void write_lock_row(std::ostream& os, const std::string& lock_label,
                    uint64_t paths, uint64_t contended,
                    const std::array<uint64_t, kNumCritBuckets>& ticks) {
  os << "{\"lock\": " << lock_label << ", \"paths\": " << paths
     << ", \"contended\": " << contended << ", \"ticks\": {";
  for (size_t b = 0; b < kNumCritBuckets; ++b)
    os << (b ? ", " : "") << '"' << to_string(static_cast<CritBucket>(b))
       << "\": " << ticks[b];
  os << "}}";
}

}  // namespace

void CritStats::write_json(std::ostream& os) const {
  if (!enabled()) {
    os << "{}";
    return;
  }
  os << "{\"mean_delay\": " << mean_delay_ << ", \"paths\": " << paths_
     << ", \"contended\": " << contended_
     << ", \"waiting_ticks\": " << waiting_ticks_
     << ", \"residual_ticks\": " << residual_ticks_
     << ", \"tail_ticks\": " << tail_ticks_ << ", \"buckets\": {";
  for (size_t b = 0; b < kNumCritBuckets; ++b)
    os << (b ? ", " : "") << '"' << to_string(static_cast<CritBucket>(b))
       << "\": {\"ticks\": " << ticks_[b] << ", \"edges\": " << edges_[b]
       << "}";
  os << "}, \"tail_hops\": [";
  for (size_t i = 0; i < tail_hops_.size(); ++i)
    os << (i ? ", " : "") << tail_hops_[i];
  os << "], \"mean_tail_in_t\": " << mean_tail_in_t()
     << ", \"tail_delay_t\": {\"lo\": " << tail_delay_t_.lo()
     << ", \"count\": " << tail_delay_t_.count()
     << ", \"sum\": " << tail_delay_t_.sum()
     << ", \"p50\": " << tail_delay_t_.p50()
     << ", \"p95\": " << tail_delay_t_.p95()
     << ", \"p99\": " << tail_delay_t_.p99()
     << ", \"underflow\": " << tail_delay_t_.underflow()
     << ", \"overflow\": " << tail_delay_t_.overflow() << ", \"buckets\": [";
  for (size_t b = 0; b < tail_delay_t_.buckets().size(); ++b)
    os << (b ? ", " : "") << tail_delay_t_.buckets()[b];
  os << "]}, \"locks\": [";
  bool first = true;
  for (const auto& [lock, row] : per_lock_) {
    if (!first) os << ", ";
    first = false;
    write_lock_row(os, std::to_string(lock), row.paths, row.contended,
                   row.ticks);
  }
  if (overflow_used_) {
    if (!first) os << ", ";
    write_lock_row(os, "-1", overflow_.paths, overflow_.contended,
                   overflow_.ticks);
  }
  os << "]}";
}

}  // namespace dqme::obs
