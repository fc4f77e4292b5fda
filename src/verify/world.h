// One explorable protocol universe (src/verify).
//
// A World wires the existing pieces — deterministic simulator, Network in
// controlled-delivery mode, a harness::Deployment of protocol sites, the
// obs::InvariantChecker — into a state machine the explorer drives one
// Action at a time. It replaces harness::Workload with its own request
// driver so that *leaving* the CS is an explorable action too: crashing a
// site while it sits in the CS, or re-ordering deliveries around an exit,
// are exactly the schedules the clock-driven harness can never produce.
//
// Every apply() advances the virtual clock by one tick before performing
// the action and drains local (src==dst) deliveries after it, so each
// choice point stamps messages with a distinct sent_at — the invariant
// checker's per-channel FIFO monotonicity check stays meaningful under
// explorer-chosen orders.
//
// A World is plain data between actions: the controlled Network never
// samples its delay model and the protocols schedule no timers, so the
// simulator is idle and the state is the sites' protocol tables, the parked
// channel queues, the checker's ledger and the World's own counters. That is
// what makes it both replayable — the same actions on a fresh World reach
// the same state — and copyable: copy_state_from() is how the explorer
// checkpoints a node and later backtracks to it without replaying the
// prefix.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/deployment.h"
#include "net/trace.h"
#include "obs/flight_recorder.h"
#include "obs/invariants.h"
#include "obs/span.h"
#include "verify/schedule.h"

namespace dqme::verify {

class World {
 public:
  // `capture` additionally subscribes a TraceRecorder + SpanRecorder next
  // to the checker (each sees every edge; attach order is irrelevant) so a
  // replayed counterexample can be exported as a Chrome trace. Exploration
  // runs without it.
  explicit World(const WorldConfig& cfg, bool capture = false);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // Checkpointing: overwrites this World's run state with `other`'s, a
  // World built from the same config, so both continue identically. Layer
  // by layer: the idle simulator's clock and counters, the controlled
  // network's flights, queues, stats and payloads, every site's protocol
  // state, the checker's ledger, and this World's own fields. Capture-mode
  // worlds cannot take part: their recorders hold history.
  void copy_state_from(const World& other);

  // Performs one action. Returns false (and changes nothing but the clock)
  // when the action is not applicable — an empty channel, an exit of a
  // site not in the CS — which keeps minimized/edited schedules replayable.
  bool apply(const Action& action);

  // All currently enabled actions, in a deterministic order: deliveries
  // (ascending channel), exits, failure notices, then — only while the
  // crash budget lasts — crashes of still-alive candidate victims.
  void enabled(std::vector<Action>& out) const;

  // True when no deliver/exit/notice action is enabled: the schedule is
  // complete. (Pending crash actions do not keep a schedule alive; crashing
  // after full quiescence exercises nothing.)
  bool quiescent() const;

  // Seals the run: invariant-checker finish (message conservation, open
  // transfer obligations) plus the driver-level liveness check — a live,
  // never-crashed, non-aborted site still waiting for the CS at quiescence
  // has been starved by the protocol. Call once, at a quiescent state.
  void seal();
  bool sealed() const { return sealed_; }

  uint64_t violations() const;
  std::vector<std::string> reports() const;

  int crashes_done() const { return crashes_done_; }
  Time now() const { return sim_.now(); }
  const WorldConfig& config() const { return cfg_; }
  const net::Network& network() const { return net_; }
  const mutex::MutexSite& site(SiteId id) const {
    return dep_.site(id);
  }
  const obs::InvariantChecker& checker() const { return *checker_; }

  // Capture output (null unless constructed with capture = true).
  const net::TraceRecorder* trace_recorder() const { return trace_rec_.get(); }
  const obs::SpanRecorder* span_recorder() const { return span_rec_.get(); }
  // Checker-fed black box (capture mode only): after a counterexample
  // replay its ring holds the tail of deliveries/edges ending in the
  // violation — dump_to() exports it as a Chrome trace.
  obs::FlightRecorder* flight_recorder() const { return flightrec_.get(); }

 private:
  // Sits between the Network and the real protocol site; the seeded
  // mutations (negative tests) drop or rewrite messages here — after the
  // invariant checker saw the original as a Network delivery subscriber,
  // which is what makes each mutation visible as a checker/driver
  // violation.
  class SiteTap final : public net::NetSite {
   public:
    SiteTap(World& world, mutex::MutexSite& site)
        : world_(world), site_(site) {}
    void on_message(const net::Message& m, LockId lock) override;

   private:
    World& world_;
    mutex::MutexSite& site_;
  };

  // Mutation filter: true = deliver `m` (possibly rewritten), false = drop.
  bool filter(net::Message& m);
  void issue_if_hungry(SiteId site);

  WorldConfig cfg_;
  sim::Simulator sim_;
  net::Network net_;
  harness::Deployment dep_;
  std::vector<std::unique_ptr<SiteTap>> taps_;
  std::unique_ptr<net::TraceRecorder> trace_rec_;
  std::unique_ptr<obs::SpanRecorder> span_rec_;
  std::unique_ptr<obs::FlightRecorder> flightrec_;
  std::unique_ptr<obs::InvariantChecker> checker_;

  std::vector<int> remaining_;  // CS entries each site still wants
  std::vector<char> aborted_;   // gave up after §6 quorum loss
  // Undelivered failure notices, one per (victim, receiver) pair; delivery
  // order is a scheduling choice, so they are actions, not timers.
  std::vector<std::pair<SiteId, SiteId>> notices_;
  int crashes_done_ = 0;
  Time step_ = 0;
  bool sealed_ = false;
  std::vector<std::string> seal_reports_;

  // Mutation state (shared across taps; a mutation can span two sites).
  bool grant_rewritten_ = false;
  bool transfer_lost_ = false;
  bool release_lost_ = false;
  SiteId lost_arbiter_ = kNoSite;
  SiteId lost_holder_ = kNoSite;
  bool fifo_inverted_ = false;

  // enabled()'s channel list, kept so the per-node call does not allocate.
  mutable std::vector<net::Network::Channel> chans_scratch_;
};

}  // namespace dqme::verify
