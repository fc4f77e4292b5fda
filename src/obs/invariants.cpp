#include "obs/invariants.h"

#include <sstream>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/span.h"

namespace dqme::obs {

InvariantChecker::InvariantChecker(net::Network& net, InvariantOptions opts)
    : net_(net), opts_(opts) {
  net.subscribe_delivery([this](const net::Message& m, LockId lock) {
    observe(m, lock, net_.simulator().now());
  });
  net.subscribe_crash([this](SiteId site) { on_crash(site); });
}

void InvariantChecker::copy_state_from(const InvariantChecker& other) {
  ledgers_ = other.ledgers_;
  fifo_floor_ = other.fifo_floor_;
  watchdog_armed_ = other.watchdog_armed_;
  finished_ = other.finished_;
  checks_ = other.checks_;
  violations_ = other.violations_;
  reports_ = other.reports_;
}

void InvariantChecker::flag(const std::string& what) {
  ++violations_;
  if (reports_.size() < opts_.max_reports) reports_.push_back(what);
  if (flightrec_)
    flightrec_->record_violation(what, net_.simulator().now());
}

InvariantChecker::Ledger& InvariantChecker::ledger(LockId lock) {
  return ledgers_[lock];
}

std::string InvariantChecker::lock_tag(LockId lock) {
  if (lock == kLock0) return {};
  return " [lock " + std::to_string(lock) + "]";
}

bool InvariantChecker::is_active(const Ledger& led, const ReqId& req) {
  auto it = led.active_span.find(req.site);
  return it != led.active_span.end() && it->second == span_of(req);
}

void InvariantChecker::discharge(Ledger& led, SiteId arbiter, SiteId holder) {
  auto it = led.transfers.find({arbiter, holder});
  if (it == led.transfers.end()) return;
  ++checks_;  // an obligation resolved the way Lemma 3's argument expects
  led.transfers.erase(it);
}

void InvariantChecker::progress(Ledger& led, SpanId span, Time at) {
  if (span == kNoSpan) return;
  auto owner = led.span_owner.find(span);
  if (owner == led.span_owner.end()) return;
  auto watch = led.open_requests.find(owner->second);
  if (watch != led.open_requests.end() && watch->second.span == span)
    watch->second.last_progress = at;
}

void InvariantChecker::arm_watchdog() {
  if (watchdog_armed_ || opts_.liveness_bound <= 0 || finished_) return;
  watchdog_armed_ = true;
  // Sweep at a quarter of the bound: a stall is flagged at most 1.25x the
  // bound after its last progress edge, and the sweep count stays O(run /
  // bound) — negligible next to message traffic.
  net_.simulator().schedule_after(opts_.liveness_bound / 4,
                                  [this] { watchdog_sweep(); });
}

void InvariantChecker::watchdog_sweep() {
  watchdog_armed_ = false;
  if (finished_) return;
  const Time now = net_.simulator().now();
  bool any_open = false;
  for (auto& [lock, led] : ledgers_) {
    for (auto& [site, watch] : led.open_requests) {
      any_open = true;
      ++checks_;
      if (watch.flagged || now - watch.last_progress <= opts_.liveness_bound)
        continue;
      watch.flagged = true;
      std::ostringstream os;
      os << "liveness: request " << format_span(watch.span) << " at site "
         << site << " has made no progress for "
         << (now - watch.last_progress) << " ticks (bound "
         << opts_.liveness_bound << ")" << lock_tag(lock);
      flag(os.str());
    }
  }
  // Keep sweeping only while requests are open; re-armed by the next issue
  // otherwise, so a drained run's event queue empties.
  if (any_open) arm_watchdog();
}

void InvariantChecker::observe(const net::Message& m, LockId lock, Time at) {
  using net::MsgType;

  // Black box first: if this very delivery trips a check below, the dump's
  // tail reads "...delivery, violation" in causal order.
  if (flightrec_) flightrec_->record_message(m, lock, at);

  // FIFO: delivery on a channel must never present a message sent after
  // one still undelivered — Network keeps a per-channel delivery floor, and
  // the protocols' stale-message hardening (DESIGN.md D1) assumes it. The
  // floor is lock-agnostic: every lock's traffic shares the channel.
  ++checks_;
  Time& floor = fifo_floor_[{m.src, m.dst}];
  if (m.sent_at < floor) {
    std::ostringstream os;
    os << "fifo: channel " << m.src << "->" << m.dst << " delivered "
       << net::to_string(m.type) << " sent at " << m.sent_at
       << " after a message sent at " << floor;
    flag(os.str());
  } else {
    floor = m.sent_at;
  }

  Ledger& led = ledger(lock);
  progress(led, m.span, at);
  if (!opts_.quorum_arbitration) return;

  switch (m.type) {
    case MsgType::kReply: {
      if (m.arbiter == kNoSite) break;
      ++checks_;
      const SiteId grantee = m.req.site;
      Held& holder = led.holder[m.arbiter];
      if (m.src != m.arbiter) discharge(led, m.arbiter, m.src);  // proxy C.1
      if (!is_active(led, m.req)) {
        // Stale grant: the grantee has moved on (exited, aborted, or §6
        // re-requested on a new span) and will drop this reply (D1). The
        // arbitration it belonged to was already settled by the grantee's
        // release, so it must not update — or be judged against — holder.
        break;
      }
      if (m.src == m.arbiter) {
        // Direct grant: the arbiter believes its permission is free.
        if (holder.site != kNoSite && holder.site != grantee) {
          std::ostringstream os;
          os << "permission: arbiter " << m.arbiter << " granted to "
             << grantee << " at " << at << " while site " << holder.site
             << " still holds its permission" << lock_tag(lock);
          flag(os.str());
        }
        holder = Held{grantee, span_of(m.req)};
      } else {
        // Proxy-forwarded grant (§3 Step C): legal only from the current
        // holder — or, when the release overtook the forwarded reply on a
        // faster channel, the arbiter already points at the grantee.
        if (holder.site == m.src) {
          holder = Held{grantee, span_of(m.req)};
        } else if (holder.site != grantee) {
          std::ostringstream os;
          os << "permission: site " << m.src << " forwarded arbiter "
             << m.arbiter << "'s reply to " << grantee << " at " << at
             << " without holding it (holder: " << holder.site << ")"
             << lock_tag(lock);
          flag(os.str());
        }
      }
      break;
    }
    case MsgType::kYield: {
      // Holder returns the arbiter's permission (delivered at the arbiter).
      // Matched on the full request, like the arbiter's lock_ == m.req.
      Held& holder = led.holder[m.arbiter];
      if (holder.site == m.req.site && holder.span == span_of(m.req))
        holder = Held{};
      discharge(led, m.arbiter, m.req.site);
      break;
    }
    case MsgType::kRelease: {
      // release(i, j|max) delivered at arbiter m.dst: frees the permission
      // or moves it to the request the releaser forwarded it to — unless
      // that request is no longer live (crashed or abandoned), in which
      // case the arbiter drops the stale forward and grants on (A.4 tail).
      Held& holder = led.holder[m.dst];
      if (holder.site == m.req.site && holder.span == span_of(m.req))
        holder = m.target.valid() && is_active(led, m.target)
                     ? Held{m.target.site, span_of(m.target)}
                     : Held{};
      discharge(led, m.dst, m.req.site);
      break;
    }
    case MsgType::kTransfer: {
      // Arbiter asks its lock holder to forward the permission (§3 Step B).
      // Open an obligation only when the holder will accept it (A.5): the
      // delivered m.req names the holder's live request and the arbiter's
      // permission is indeed held there. An early transfer — reply still in
      // flight, so the holder ignores it — is re-sent or subsumed by the
      // holder's own parameterized release, which discharges the same key.
      ++checks_;
      auto span = led.active_span.find(m.dst);
      const bool accepted = span != led.active_span.end() &&
                            span->second == span_of(m.req) &&
                            led.holder[m.arbiter].site == m.dst;
      if (accepted)
        led.transfers[{m.arbiter, m.dst}] = Obligation{m.target, at};
      break;
    }
    default:
      break;  // requests/fails/inquires and non-mutex traffic: progress only
  }
}

void InvariantChecker::on_crash(SiteId site) {
  if (flightrec_) flightrec_->record_crash(site, net_.simulator().now());
  // Fail-silent crash (§6): nothing sent by `site` is delivered from now
  // on, so write off everything only it could have discharged — on every
  // lock; a crash takes the site's whole endpoint down. The arbiters
  // re-grant after the failure notice, which must not read as a violation.
  for (auto& [lock, led] : ledgers_) {
    (void)lock;
    led.cs_occupants.erase(site);
    led.active_span.erase(site);
    auto watch = led.open_requests.find(site);
    if (watch != led.open_requests.end()) {
      led.span_owner.erase(watch->second.span);
      led.open_requests.erase(watch);
    }
    for (auto& [arbiter, holder] : led.holder)
      if (holder.site == site) holder = Held{};
    for (auto it = led.transfers.begin(); it != led.transfers.end();) {
      if (it->first.first == site || it->first.second == site) {
        ++checks_;
        it = led.transfers.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void InvariantChecker::on_span_issue(SiteId site, LockId lock, SpanId span,
                                     Time at) {
  if (flightrec_)
    flightrec_->record_span(FlightRecorder::Kind::kSpanIssue, site, lock,
                            span, at);
  if (span != kNoSpan) {
    Ledger& led = ledger(lock);
    // A fresh issue from a site with an open request is the §6 recovery
    // path abandoning the old quorum: the old watch moves to the new span.
    auto prev = led.open_requests.find(site);
    if (prev != led.open_requests.end())
      led.span_owner.erase(prev->second.span);
    led.active_span[site] = span;
    led.open_requests[site] = Watch{span, at, false};
    led.span_owner[span] = site;
    arm_watchdog();
  }
}

void InvariantChecker::on_span_enter(SiteId site, LockId lock, SpanId span,
                                     Time at) {
  if (flightrec_)
    flightrec_->record_span(FlightRecorder::Kind::kSpanEnter, site, lock,
                            span, at);
  Ledger& led = ledger(lock);
  ++checks_;
  if (!led.cs_occupants.empty()) {
    std::ostringstream os;
    os << "safety: site " << site << " entered the CS at " << at << " (span "
       << format_span(span) << ") while occupied by";
    for (const auto& [other, other_span] : led.cs_occupants)
      os << " site " << other << " (span " << format_span(other_span) << ")";
    os << lock_tag(lock);
    flag(os.str());
  }
  led.cs_occupants[site] = span;
  auto watch = led.open_requests.find(site);
  if (watch != led.open_requests.end()) {
    led.span_owner.erase(watch->second.span);
    led.open_requests.erase(watch);
  }
}

void InvariantChecker::on_span_exit(SiteId site, LockId lock, SpanId span,
                                    Time at) {
  if (flightrec_)
    flightrec_->record_span(FlightRecorder::Kind::kSpanExit, site, lock,
                            span, at);
  Ledger& led = ledger(lock);
  led.cs_occupants.erase(site);
  led.active_span.erase(site);
}

void InvariantChecker::on_span_abort(SiteId site, LockId lock, SpanId span,
                                     Time at) {
  if (flightrec_)
    flightrec_->record_span(FlightRecorder::Kind::kSpanAbort, site, lock,
                            span, at);
  Ledger& led = ledger(lock);
  led.active_span.erase(site);
  auto watch = led.open_requests.find(site);
  if (watch != led.open_requests.end()) {
    led.span_owner.erase(watch->second.span);
    led.open_requests.erase(watch);
  }
}

void InvariantChecker::finish(Time now) {
  if (finished_) return;
  finished_ = true;

  ++checks_;
  const auto& stats = net_.stats();
  if (stats.in_flight() != 0) {
    std::ostringstream os;
    os << "conservation: " << stats.in_flight()
       << " staged message(s) neither delivered nor dropped at quiescence";
    flag(os.str());
  }

  for (const auto& [lock, led] : ledgers_) {
    for (const auto& [key, ob] : led.transfers) {
      ++checks_;
      std::ostringstream os;
      os << "conservation: transfer from arbiter " << key.first
         << " to holder " << key.second << " (target "
         << format_span(span_of(ob.target)) << ", sent at " << ob.opened_at
         << ") never discharged by a proxied reply or release"
         << lock_tag(lock);
      flag(os.str());
    }

    if (opts_.liveness_bound > 0) {
      for (const auto& [site, watch] : led.open_requests) {
        ++checks_;
        if (watch.flagged ||
            now - watch.last_progress <= opts_.liveness_bound)
          continue;
        std::ostringstream os;
        os << "liveness: request " << format_span(watch.span) << " at site "
           << site << " still open at the end of the run, no progress for "
           << (now - watch.last_progress) << " ticks" << lock_tag(lock);
        flag(os.str());
      }
    }
  }
}

}  // namespace dqme::obs
