// Per-site decision log — the shared golden format of the rt-vs-sim
// equivalence check (DESIGN.md §9, tests/rt_equivalence_test.cpp).
//
// A DecisionLog wraps one protocol site as its network receiver and span
// observer, recording, in the site's own processing order:
//   * every control message the site RECEIVES (its inbound protocol view —
//     each peer decision manifests here as the bytes it put on the wire),
//   * every span edge the site emits (issue / enter / exit / abort — its
//     own CS decisions).
//
// Backend-dependent fields are masked: Message::sent_at (virtual ticks vs
// wall-clock microseconds), Message::payload (pool slot ids are allocation
// order, which differs across backends), and span-edge timestamps. What
// remains is exactly the protocol decision content: type, request
// identities, sequence numbers, arbiter, lock, span. Two backends given
// the same delivery order must produce byte-identical logs, or one of them
// made a different protocol decision.
//
// Token-state payloads are not hashed into the log; a divergent token
// (LN[] or queue) changes which request is served next, so it surfaces in
// the subsequent control traffic within a few hops.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "mutex/mutex_site.h"
#include "net/executor.h"
#include "net/message.h"

namespace dqme::rt {

class DecisionLog final : public net::NetSite, public mutex::SpanObserver {
 public:
  struct Record {
    enum Kind : uint8_t {
      kDeliver = 0,
      kIssue = 1,
      kEnter = 2,
      kExit = 3,
      kAbort = 4,
    };
    uint8_t kind = kDeliver;
    uint8_t type = 0;  // net::MsgType for kDeliver
    SiteId src = kNoSite;
    SiteId arbiter = kNoSite;
    LockId lock = kNoLock;
    SeqNum req_seq = 0;
    SiteId req_site = kNoSite;
    SeqNum tgt_seq = 0;
    SiteId tgt_site = kNoSite;
    SeqNum seq = 0;
    SpanId span = kNoSpan;

    friend bool operator==(const Record& a, const Record& b) {
      return a.kind == b.kind && a.type == b.type && a.src == b.src &&
             a.arbiter == b.arbiter && a.lock == b.lock &&
             a.req_seq == b.req_seq && a.req_site == b.req_site &&
             a.tgt_seq == b.tgt_seq && a.tgt_site == b.tgt_site &&
             a.seq == b.seq && a.span == b.span;
    }
    friend bool operator!=(const Record& a, const Record& b) {
      return !(a == b);
    }

    std::string str() const {
      static constexpr const char* kKinds[] = {"deliver", "issue", "enter",
                                               "exit", "abort"};
      std::ostringstream os;
      os << kKinds[kind];
      if (kind == kDeliver) {
        os << ' ' << net::to_string(static_cast<net::MsgType>(type))
           << " from=" << src << " arb=" << arbiter << " req=(" << req_seq
           << ',' << req_site << ") tgt=(" << tgt_seq << ',' << tgt_site
           << ") seq=" << seq;
      }
      os << " lock=" << lock << " span=" << span;
      return os.str();
    }
  };

  // Interposes this log between the backend and `site`: the log becomes
  // site `id`'s receiver on `exec` and subscribes to the site's span edges
  // alongside any other observer. Call after the site is constructed.
  void bind(net::Executor& exec, mutex::MutexSite& site) {
    site_ = &site;
    site.add_span_observer(this);
    exec.attach(site.id(), this);
  }

  // net::NetSite — record the masked inbound message, then forward.
  void on_message(const net::Message& m, LockId lock) override {
    Record r;
    r.kind = Record::kDeliver;
    r.type = static_cast<uint8_t>(m.type);
    r.src = m.src;
    r.arbiter = m.arbiter;
    r.lock = lock;
    r.req_seq = m.req.seq;
    r.req_site = m.req.site;
    r.tgt_seq = m.target.seq;
    r.tgt_site = m.target.site;
    r.seq = m.seq;
    r.span = m.span;
    records_.push_back(r);
    DQME_CHECK(site_ != nullptr);
    site_->on_message(m, lock);
  }

  // mutex::SpanObserver — record the edge (time masked).
  void on_span_issue(SiteId, LockId lock, SpanId span, Time) override {
    push_span(Record::kIssue, lock, span);
  }
  void on_span_enter(SiteId, LockId lock, SpanId span, Time) override {
    push_span(Record::kEnter, lock, span);
  }
  void on_span_exit(SiteId, LockId lock, SpanId span, Time) override {
    push_span(Record::kExit, lock, span);
  }
  void on_span_abort(SiteId, LockId lock, SpanId span, Time) override {
    push_span(Record::kAbort, lock, span);
  }

  const std::vector<Record>& records() const { return records_; }
  mutex::MutexSite* site() const { return site_; }

 private:
  void push_span(uint8_t kind, LockId lock, SpanId span) {
    Record r;
    r.kind = kind;
    r.lock = lock;
    r.span = span;
    records_.push_back(r);
  }

  mutex::MutexSite* site_ = nullptr;
  std::vector<Record> records_;
};

// Human-readable diff of two per-site log sets: empty string when they are
// identical, otherwise the first divergence (site, index, both records).
inline std::string diff_decision_logs(
    const std::vector<std::vector<DecisionLog::Record>>& a,
    const std::vector<std::vector<DecisionLog::Record>>& b) {
  std::ostringstream os;
  if (a.size() != b.size()) {
    os << "site count differs: " << a.size() << " vs " << b.size();
    return os.str();
  }
  for (size_t s = 0; s < a.size(); ++s) {
    const auto& la = a[s];
    const auto& lb = b[s];
    const size_t n = la.size() < lb.size() ? la.size() : lb.size();
    for (size_t i = 0; i < n; ++i) {
      if (la[i] != lb[i]) {
        os << "site " << s << " record " << i << " differs:\n  sim: "
           << la[i].str() << "\n  rt:  " << lb[i].str();
        return os.str();
      }
    }
    if (la.size() != lb.size()) {
      os << "site " << s << " log length differs: sim=" << la.size()
         << " rt=" << lb.size() << "; first extra: "
         << (la.size() > lb.size() ? la[n].str() : lb[n].str());
      return os.str();
    }
  }
  return std::string();
}

}  // namespace dqme::rt
