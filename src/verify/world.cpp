#include "verify/world.h"

#include <algorithm>

#include "common/check.h"
#include "net/delay_model.h"

namespace dqme::verify {

void World::SiteTap::on_message(const net::Message& m, LockId lock) {
  net::Message local = m;
  if (!world_.filter(local)) return;
  site_.on_message(local, lock);
}

bool World::filter(net::Message& m) {
  switch (cfg_.mutation) {
    case Mutation::kNone:
    case Mutation::kFifoInversion:  // seeded in apply(), not here
      return true;
    case Mutation::kDoubleGrant:
      // The first time an arbiter's direct grant lands anywhere, the same
      // arbiter "grants" a second, still-waiting requester too — a forged
      // reply carrying the victim's own request id, sent on the real wire.
      // It parks like any flight, so the explorer decides when it lands;
      // in every order where the first holder has not yet released, the
      // checker's permission ledger sees one arbiter with two live grants.
      if (!grant_rewritten_ && m.type == net::MsgType::kReply &&
          m.arbiter != kNoSite && m.src == m.arbiter &&
          dep_.quorums() != nullptr) {
        for (SiteId t = 0; t < cfg_.n; ++t) {
          if (t == m.dst || !net_.alive(t)) continue;
          mutex::MutexSite& victim = dep_.site(t);
          if (!victim.requesting() || victim.active_span() == kNoSpan)
            continue;
          const quorum::Quorum q = dep_.quorums()->quorum_for(t);
          if (std::find(q.begin(), q.end(), m.arbiter) == q.end()) continue;
          grant_rewritten_ = true;
          const ReqId req{span_seq(victim.active_span()),
                          span_site(victim.active_span())};
          net_.send(m.arbiter, t, net::make_reply(m.arbiter, req));
          break;
        }
      }
      return true;
    case Mutation::kLostTransfer:
      // Phase 1: the first transfer vanishes before its holder sees it, so
      // the proxy handoff never happens. Phase 2: that holder's next
      // release to the same arbiter vanishes too — otherwise the arbiter
      // would simply re-grant at release and the run self-heals. The
      // arbiter's lock is now stuck with a departed holder; whoever waits
      // on it starves, which seal() reports as a stalled request.
      if (!transfer_lost_ && m.type == net::MsgType::kTransfer) {
        transfer_lost_ = true;
        lost_arbiter_ = m.src;
        lost_holder_ = m.dst;
        return false;
      }
      if (transfer_lost_ && !release_lost_ &&
          m.type == net::MsgType::kRelease && m.src == lost_holder_ &&
          m.dst == lost_arbiter_) {
        release_lost_ = true;
        return false;
      }
      return true;
    case Mutation::kDeadlockOrdering:
      // Every inquire vanishes: the §4 deadlock-avoidance handshake
      // (inquire -> yield -> re-grant by priority) is severed, so the
      // crossed-grant orderings it exists to break — each arbiter locked
      // by a different requester, nobody completing a quorum — become a
      // reachable circular wait. The explorer's job is to find that
      // request-ordering shape; seal() then reports the stalled requests.
      return m.type != net::MsgType::kInquire;
  }
  return true;
}

namespace {

mutex::AlgoOptions algo_options(const WorldConfig& cfg) {
  mutex::AlgoOptions opts;
  opts.fault_tolerant = cfg.fault_tolerant;
  opts.num_locks = cfg.num_locks;
  return opts;
}

}  // namespace

World::World(const WorldConfig& cfg, bool capture)
    : cfg_(cfg),
      net_(sim_, cfg.n, std::make_unique<net::ConstantDelay>(1),
           /*seed=*/1),
      dep_(cfg.algo, cfg.n, cfg.quorum, algo_options(cfg), net_) {
  DQME_CHECK(cfg.n >= 2);
  DQME_CHECK(cfg.cs_per_site >= 1);
  // Schedule and frontier files carry crash_sites too, so every entry
  // point meets this check.
  for (SiteId v : cfg.crash_sites)
    DQME_CHECK_MSG(0 <= v && v < cfg.n,
                   "crash site " << v << " is outside 0.." << cfg.n - 1);
  net_.set_controlled(true);
  for (mutex::MutexSite* site : dep_.sites()) {
    taps_.push_back(std::make_unique<SiteTap>(*this, *site));
    net_.attach(site->id(), taps_.back().get());
  }

  // Quiescence-time liveness is seal()'s job: no watchdog.
  checker_ = std::make_unique<obs::InvariantChecker>(
      net_, dep_.invariant_options(0));
  checker_->attach_all(dep_.sites());
  if (capture) {
    log_ = std::make_unique<obs::EventLog>(net_);
    log_->attach_all(dep_.sites());
    flightrec_ = std::make_unique<obs::FlightRecorder>();
    flightrec_->set_label("dqme_explore replay " +
                          std::string(mutex::to_string(cfg.algo)) + " n=" +
                          std::to_string(cfg.n));
    checker_->set_flight_recorder(flightrec_.get());
  }

  remaining_.assign(static_cast<size_t>(cfg.n), cfg.cs_per_site);
  aborted_.assign(static_cast<size_t>(cfg.n), 0);
  for (SiteId i = 0; i < cfg.n; ++i) {
    mutex::MutexSite& site = dep_.site(i);
    site.on_enter = [this](SiteId s, LockId) {
      --remaining_[static_cast<size_t>(s)];
    };
    site.on_abort = [this](SiteId s, LockId) {
      // §6: no quorum can be formed around the crash; the site gives up.
      remaining_[static_cast<size_t>(s)] = 0;
      aborted_[static_cast<size_t>(s)] = 1;
    };
  }
  // Saturation regime: every site wants the CS from t=0. (The explorer
  // varies delivery order, not issue times — the adversarial power the
  // paper's safety claims must survive is in the network, and a late
  // issue is indistinguishable from its request messages being delayed.)
  // The explorer's demand is lock 0 only (see WorldConfig::num_locks).
  for (mutex::MutexSite* site : dep_.sites()) site->request_cs(kLock0);
  sim_.run_until(step_);  // drain local self-deliveries of the issue burst
}

void World::copy_state_from(const World& other) {
  DQME_CHECK_MSG(cfg_ == other.cfg_, "copy_state_from across configs");
  DQME_CHECK_MSG(log_ == nullptr && other.log_ == nullptr,
                 "capture-mode worlds cannot be copied");
  sim_.copy_state_from(other.sim_);
  net_.copy_state_from(other.net_);
  for (SiteId i = 0; i < cfg_.n; ++i)
    dep_.site(i).copy_state_from(other.dep_.site(i));
  checker_->copy_state_from(*other.checker_);
  remaining_ = other.remaining_;
  aborted_ = other.aborted_;
  notices_ = other.notices_;
  crashes_done_ = other.crashes_done_;
  step_ = other.step_;
  sealed_ = other.sealed_;
  seal_reports_ = other.seal_reports_;
  grant_rewritten_ = other.grant_rewritten_;
  transfer_lost_ = other.transfer_lost_;
  release_lost_ = other.release_lost_;
  lost_arbiter_ = other.lost_arbiter_;
  lost_holder_ = other.lost_holder_;
  fifo_inverted_ = other.fifo_inverted_;
}

void World::issue_if_hungry(SiteId site) {
  const auto s = static_cast<size_t>(site);
  if (remaining_[s] > 0 && net_.alive(site) && dep_.site(site).idle())
    dep_.site(site).request_cs(kLock0);
}

bool World::apply(const Action& action) {
  DQME_CHECK_MSG(!sealed_, "apply() on a sealed world");
  ++step_;
  sim_.run_until(step_);
  bool applied = false;
  switch (action.kind) {
    case ActionKind::kDeliver: {
      if (action.a < 0 || action.a >= cfg_.n || action.b < 0 ||
          action.b >= cfg_.n)
        break;  // malformed (hand-edited) schedules must not abort replay
      if (cfg_.mutation == Mutation::kFifoInversion && !fifo_inverted_ &&
          net_.parked_count(action.a, action.b) >= 2 &&
          net_.parked_sent_at(action.a, action.b, 1) !=
              net_.parked_sent_at(action.a, action.b, 0)) {
        // The seeded inversion: the first time a channel holds two flights
        // staged at different instants, the younger one jumps the queue.
        fifo_inverted_ = true;
        applied = net_.deliver_parked(action.a, action.b, 1);
      } else {
        applied = net_.deliver_next(action.a, action.b);
      }
      break;
    }
    case ActionKind::kExit: {
      if (action.a >= 0 && action.a < cfg_.n && dep_.site(action.a).in_cs()) {
        dep_.site(action.a).release_cs(kLock0);
        issue_if_hungry(action.a);
        applied = true;
      }
      break;
    }
    case ActionKind::kNotice: {
      const auto it = std::find(notices_.begin(), notices_.end(),
                                std::make_pair(action.a, action.b));
      if (it != notices_.end() && net_.alive(action.b)) {
        notices_.erase(it);
        // Mirrors core::FailureDetector: notices are injected straight
        // into the receiver, not sent on the wire.
        taps_[static_cast<size_t>(action.b)]->on_message(
            net::make_failure_notice(action.a), kLock0);
        applied = true;
      }
      break;
    }
    case ActionKind::kCrash: {
      if (action.a >= 0 && action.a < cfg_.n && net_.alive(action.a)) {
        ++crashes_done_;
        net_.crash(action.a);  // drops parked flights, tells the checker
        remaining_[static_cast<size_t>(action.a)] = 0;
        // Pending notices to the dead site will never be delivered.
        std::erase_if(notices_, [&](const std::pair<SiteId, SiteId>& p) {
          return p.second == action.a;
        });
        for (SiteId r = 0; r < cfg_.n; ++r)
          if (r != action.a && net_.alive(r))
            notices_.emplace_back(action.a, r);
        applied = true;
      }
      break;
    }
  }
  sim_.run_until(step_);  // drain local self-deliveries the action caused
  return applied;
}

void World::enabled(std::vector<Action>& out) const {
  out.clear();
  net_.parked_channels(chans_scratch_);
  for (const auto& c : chans_scratch_)
    out.push_back(Action{ActionKind::kDeliver, c.src, c.dst});
  for (SiteId i = 0; i < cfg_.n; ++i)
    if (net_.alive(i) && dep_.site(i).in_cs())
      out.push_back(Action{ActionKind::kExit, i, kNoSite});
  for (const auto& [victim, receiver] : notices_)
    out.push_back(Action{ActionKind::kNotice, victim, receiver});
  if (crashes_done_ < cfg_.max_crashes && !quiescent())
    for (SiteId v : cfg_.crash_sites)
      if (net_.alive(v))
        out.push_back(Action{ActionKind::kCrash, v, kNoSite});
}

bool World::quiescent() const {
  if (net_.parked_flights() > 0 || !notices_.empty()) return false;
  for (SiteId i = 0; i < cfg_.n; ++i)
    if (net_.alive(i) && dep_.site(i).in_cs()) return false;
  return true;
}

void World::seal() {
  DQME_CHECK_MSG(!sealed_, "seal() called twice");
  sealed_ = true;
  checker_->finish(sim_.now());
  for (SiteId i = 0; i < cfg_.n; ++i) {
    const auto s = static_cast<size_t>(i);
    if (!net_.alive(i) || aborted_[s]) continue;  // crash/§6 write-offs
    if (dep_.site(i).requesting()) {
      seal_reports_.push_back("stalled request at quiescence: site " +
                              std::to_string(i) +
                              " still waiting with nothing in flight");
    } else if (remaining_[s] > 0 && !dep_.site(i).in_cs()) {
      seal_reports_.push_back("starved site at quiescence: site " +
                              std::to_string(i) + " idle with " +
                              std::to_string(remaining_[s]) +
                              " entries outstanding");
    }
  }
}

uint64_t World::violations() const {
  return checker_->violations() + seal_reports_.size();
}

std::vector<std::string> World::reports() const {
  std::vector<std::string> out = checker_->reports();
  out.insert(out.end(), seal_reports_.begin(), seal_reports_.end());
  return out;
}

}  // namespace dqme::verify
