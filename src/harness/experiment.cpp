#include "harness/experiment.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/flags.h"
#include "harness/deployment.h"
#include "harness/sweep.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/invariants.h"
#include "obs/model.h"

namespace dqme::harness {

namespace {

std::unique_ptr<net::DelayModel> make_delay(const ExperimentConfig& cfg) {
  const Time t = cfg.mean_delay;
  switch (cfg.delay_kind) {
    case ExperimentConfig::DelayKind::kConstant:
      return std::make_unique<net::ConstantDelay>(t);
    case ExperimentConfig::DelayKind::kUniform:
      return std::make_unique<net::UniformDelay>(t / 2, t + t / 2);
    case ExperimentConfig::DelayKind::kExponential:
      return std::make_unique<net::ShiftedExponentialDelay>(
          std::max<Time>(1, t / 10), t, 10 * t);
    case ExperimentConfig::DelayKind::kClustered: {
      std::vector<int> cluster_of(static_cast<size_t>(cfg.n));
      for (int s = 0; s < cfg.n; ++s)
        cluster_of[static_cast<size_t>(s)] = s % std::max(1, cfg.clusters);
      return std::make_unique<net::ClusteredDelay>(
          std::move(cluster_of), std::max<Time>(1, t / 5), t);
    }
  }
  DQME_CHECK(false);
  return nullptr;
}

// Watchdog bound when the config leaves it to us: the longest legal wait is
// about N saturated CS cycles (starvation freedom serves everyone once per
// round), so take a ~8x margin on that plus slack for the drain tail and
// crash-detection window. Generous by design — the watchdog exists to catch
// genuine stalls, not to time the tail of a legal queue.
Time auto_liveness_bound(const ExperimentConfig& cfg) {
  const Time cycle = 2 * cfg.mean_delay + cfg.workload.cs_duration;
  return 8 * static_cast<Time>(cfg.n) * cycle + 400 * cfg.mean_delay +
         10 * (cfg.detection_latency + cfg.detection_jitter);
}

// Window-boundary sampler for the timeline's network-side series. Runs as a
// self-rescheduling sim event once per window — the message hot path itself
// is never hooked, so an enabled timeline costs O(windows) events, not
// O(messages). Each sample attributes the just-ended window's deltas to it
// (recording at boundary-1 keeps the half-open window arithmetic exact) and
// emits a "recovery xK" marker when any Cao-Singhal site completed §6 quorum
// reconstructions since the previous boundary.
struct TimelineSampler {
  net::Network& net;
  const Deployment& dep;
  obs::Timeline& tl;
  obs::Timeline::Counter& wire;
  obs::Timeline::Counter& ctrl;
  obs::Timeline::Counter& piggy;
  obs::Timeline::Gauge& mpf;
  Time end = 0;

  uint64_t prev_wire = 0, prev_ctrl = 0, prev_piggy = 0;
  uint64_t prev_recoveries = 0;

  TimelineSampler(net::Network& n, const Deployment& d, obs::Timeline& t,
                  Time end_at)
      : net(n),
        dep(d),
        tl(t),
        wire(t.counter("net.wire_msgs")),
        ctrl(t.counter("net.ctrl_msgs")),
        piggy(t.counter("net.piggybacked_msgs")),
        mpf(t.gauge("net.msgs_per_flight")),
        end(end_at) {}

  void sample(Time now) {
    const Time in_window = now > 0 ? now - 1 : 0;
    const auto& ns = net.stats();
    wire.record(in_window, ns.wire_messages - prev_wire);
    ctrl.record(in_window, ns.control_messages - prev_ctrl);
    piggy.record(in_window, ns.piggybacked_messages - prev_piggy);
    const uint64_t d_wire = ns.wire_messages - prev_wire;
    const uint64_t d_ctrl = ns.control_messages - prev_ctrl;
    mpf.record(in_window, d_wire > 0 ? static_cast<double>(d_ctrl) /
                                           static_cast<double>(d_wire)
                                     : 1.0);
    prev_wire = ns.wire_messages;
    prev_ctrl = ns.control_messages;
    prev_piggy = ns.piggybacked_messages;

    const uint64_t rec = dep.totals().protocol_stats.recoveries;
    if (rec > prev_recoveries) {
      tl.mark("recovery x" + std::to_string(rec - prev_recoveries),
              in_window);
      prev_recoveries = rec;
    }

    if (now < end) {
      const Time next = std::min(now + tl.window(), end);
      net.simulator().schedule_at(next, [this, next] { sample(next); });
    }
  }

  void start() {
    const Time first = std::min(tl.window(), end);
    net.simulator().schedule_at(first, [this, first] { sample(first); });
  }
};

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  const auto wall_start = std::chrono::steady_clock::now();
  sim::Simulator sim;
  net::Network network(sim, cfg.n, make_delay(cfg), cfg.seed * 7919 + 13);
  if (cfg.lock_piggyback_window >= 0)
    network.set_lock_piggyback(cfg.lock_piggyback_window);

  // Observability capture (opt-in). One event log serves both consumers,
  // the capture and critical-path attribution. Every observer below
  // subscribes independently, so each sees every edge whatever the attach
  // order.
  std::unique_ptr<obs::EventLog> log;
  if (cfg.capture != nullptr || cfg.critpath)
    log = std::make_unique<obs::EventLog>(network);

  const Deployment dep(cfg.algo, cfg.n, cfg.quorum, cfg.options, network);
  if (log) log->attach_all(dep.sites());

  std::unique_ptr<obs::InvariantChecker> checker;
  if (cfg.check_invariants) {
    checker = std::make_unique<obs::InvariantChecker>(
        network, dep.invariant_options(cfg.liveness_bound > 0
                                           ? cfg.liveness_bound
                                           : auto_liveness_bound(cfg)));
    checker->attach_all(dep.sites());
  }

  ExperimentResult res;
  if (cfg.timeline_window > 0)
    res.timeline = obs::Timeline(0, cfg.timeline_window);
  if (cfg.lock_stats_k > 0)
    res.lock_stats = obs::LockStats(static_cast<size_t>(cfg.lock_stats_k));

  // Black box: fed through the checker so wire traffic, span edges, crashes
  // and the violation itself land in one ring, and the first violation
  // triggers the dump.
  std::unique_ptr<obs::FlightRecorder> flightrec;
  if (!cfg.flight_recorder_dump.empty()) {
    DQME_CHECK_MSG(checker != nullptr,
                   "flight_recorder_dump requires check_invariants");
    flightrec = std::make_unique<obs::FlightRecorder>();
    flightrec->set_dump_path(cfg.flight_recorder_dump);
    flightrec->set_label(std::string(mutex::to_string(cfg.algo)) +
                         " n=" + std::to_string(cfg.n) +
                         " seed=" + std::to_string(cfg.seed));
    checker->set_flight_recorder(flightrec.get());
  }

  Metrics metrics(network, cfg.options.num_locks);
  Workload::Config wl = cfg.workload;
  wl.seed = cfg.seed * 104729 + 7;
  // The lock table is sized once, in AlgoOptions; the workload follows it.
  wl.num_locks = cfg.options.num_locks;
  Workload workload(sim, dep.sites(), wl, &metrics);

  core::FailureDetector detector(network, cfg.detection_latency,
                                 cfg.detection_jitter, cfg.seed * 31 + 5);
  for (SiteId id = 0; id < cfg.n; ++id) detector.attach(id, &dep.site(id));
  for (const auto& crash : cfg.crashes) {
    DQME_CHECK(0 <= crash.victim && crash.victim < cfg.n);
    sim.schedule_at(crash.at, [&detector, &workload, victim = crash.victim] {
      workload.halt_site(victim);
      detector.crash(victim);
    });
  }

  // Timeline sampler + crash markers: the network-side series sample at
  // window boundaries (covering warmup too — the §6 trajectory needs the
  // pre-crash baseline); the CS-side series bind with the registry below.
  std::unique_ptr<TimelineSampler> sampler;
  if (res.timeline.enabled()) {
    for (const auto& crash : cfg.crashes)
      res.timeline.mark("crash site=" + std::to_string(crash.victim),
                        crash.at);
    sampler = std::make_unique<TimelineSampler>(network, dep, res.timeline,
                                                cfg.warmup + cfg.measure);
    sampler->start();
  }

  workload.start();
  sim.run_until(cfg.warmup);
  metrics.reset(sim.now());
  // Bind after the warmup reset so the registry histograms cover exactly
  // the measurement window, like every Summary aggregate.
  metrics.bind_registry(&res.registry, cfg.mean_delay);
  metrics.bind_timeline(&res.timeline, cfg.mean_delay);
  if (res.lock_stats.enabled()) metrics.bind_lock_stats(&res.lock_stats);
  sim.run_until(cfg.warmup + cfg.measure);

  res.summary = metrics.summarize(sim.now());
  metrics.bind_registry(nullptr, 0);  // drain-phase CSs stay out of the window
  metrics.bind_timeline(nullptr, 0);
  metrics.bind_lock_stats(nullptr);

  // Drain: stop new demand, let in-flight requests finish, verify nothing
  // is stuck. A protocol deadlock would leave outstanding demands (and,
  // almost always, a non-empty request with an empty event queue).
  workload.drain();
  const Time drain_deadline =
      sim.now() + 1000 * cfg.mean_delay + 100 * cfg.workload.cs_duration;
  sim.run_until(drain_deadline);
  res.drained_clean = workload.demands_outstanding() == 0;

  res.demands_issued = workload.demands_issued();
  res.demands_completed = workload.demands_completed();
  res.demands_aborted = workload.demands_aborted();
  if (dep.quorums()) res.mean_quorum_size = dep.quorums()->mean_quorum_size();
  const Deployment::Totals totals = dep.totals();
  res.stale_drops = totals.stale_drops;
  res.case_stats = totals.case_stats;
  res.protocol_stats = totals.protocol_stats;
  res.sync_delay_in_t = res.summary.sync_delay_contended /
                        static_cast<double>(cfg.mean_delay);
  if (checker) {
    checker->finish(sim.now());
    res.invariant_violations = checker->violations();
    res.invariant_checks = checker->checks();
    res.invariant_reports = checker->reports();
  }
  res.sim_events = sim.events_executed();
  res.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();

  // Critical-path attribution: extracted after the drain (so every chain
  // the window started is complete), filtered to entries inside the
  // measurement window — the same population as the waiting histogram.
  if (cfg.critpath) {
    res.critpath = obs::CritStats(cfg.mean_delay);
    const Time win_lo = cfg.warmup;
    const Time win_hi = cfg.warmup + cfg.measure;
    for (const obs::CritPath& p :
         obs::extract_critical_paths(log->events()))
      if (p.entered >= win_lo && p.entered < win_hi) res.critpath.record(p);
  }

  // Engine accounting into the registry: whole-run totals (they have no
  // warmup/measure distinction) plus high-water gauges.
  {
    obs::Registry& reg = res.registry;
    reg.counter("sim.events") = sim.events_executed();
    reg.counter("sim.scheduled") = sim.scheduled_total();
    reg.counter("sim.cancelled") = sim.cancelled_total();
    reg.counter("sim.compactions") = sim.compactions();
    reg.gauge("sim.peak_heap") = static_cast<double>(sim.peak_heap());
    reg.gauge("sim.slab_capacity") = static_cast<double>(sim.slab_capacity());
    reg.gauge("sim.tombstone_ratio") = sim.tombstone_ratio();
    const auto& ns = network.stats();
    reg.counter("net.wire_msgs") = ns.wire_messages;
    reg.counter("net.ctrl_msgs") = ns.control_messages;
    reg.counter("net.flights.acquired") = ns.flights_acquired;
    reg.gauge("net.flights.pool") = static_cast<double>(network.flight_pool_size());
    reg.counter("mutex.stale_drops") = res.stale_drops;
    // Lock-table metrics only when the run uses the feature: single-lock,
    // no-piggyback registries stay byte-identical to committed goldens.
    if (cfg.options.num_locks > 1 || cfg.lock_piggyback_window >= 0) {
      reg.counter("net.piggybacked_msgs") = ns.piggybacked_messages;
      reg.gauge("net.msgs_per_flight") =
          ns.wire_messages > 0
              ? static_cast<double>(ns.control_messages) /
                    static_cast<double>(ns.wire_messages)
              : 1.0;
    }
    if (checker) {
      reg.counter("invariant.checks") = res.invariant_checks;
      reg.counter("invariant.violations") = res.invariant_violations;
    }
    // Delay-budget keys only when the run asked for attribution: plain
    // runs keep their registries byte-identical to committed goldens.
    if (cfg.critpath) {
      reg.counter("critpath.paths") = res.critpath.paths();
      reg.counter("critpath.contended") = res.critpath.contended();
      reg.counter("critpath.residual_ticks") = res.critpath.residual_ticks();
      for (size_t b = 0; b < obs::kNumCritBuckets; ++b)
        reg.counter(std::string("critpath.ticks.") +
                    std::string(obs::to_string(
                        static_cast<obs::CritBucket>(b)))) =
            res.critpath.ticks(static_cast<obs::CritBucket>(b));
      reg.gauge("critpath.tail_delay_t") = res.critpath.mean_tail_in_t();
    }

    // Analytic-model conformance (Table 1), emitted for every run so each
    // bench --json carries its divergence from the paper's closed forms.
    const obs::ModelPrediction pred =
        obs::predict(cfg.algo, cfg.n, res.mean_quorum_size);
    if (pred.has_delay) {
      // Refine the delay form by the observed relay mix: a proxied handoff
      // costs 1T, a degraded arbiter relay 2T (see obs/model.h). Protocols
      // that don't classify entries fall back to the bare Table 1 value.
      const double pred_t = obs::mixed_sync_delay(
          res.summary.contended_proxied, res.summary.contended_direct,
          pred.sync_delay_t);
      reg.gauge("model.sync_delay_pred_t") = pred_t;
      reg.gauge("model_divergence_sync_delay") =
          res.summary.contended_gaps == 0
              ? 0
              : obs::divergence_point(res.sync_delay_in_t, pred_t);
      // Attribution-vs-model reconciliation: the mean critical-path tail
      // (ticks after the last holder exit, in T) against the same refined
      // Table 1 form the aggregate gauge uses.
      if (cfg.critpath)
        reg.gauge("critpath.divergence_tail_vs_model") =
            res.critpath.contended() == 0
                ? 0
                : obs::divergence_point(res.critpath.mean_tail_in_t(),
                                        pred_t);
    }
    if (pred.has_msgs) {
      reg.gauge("model.msgs_lo") = pred.msgs_lo;
      reg.gauge("model.msgs_hi") = pred.msgs_hi;
      reg.gauge("model_divergence_msgs") =
          res.summary.completed == 0
              ? 0
              : obs::divergence_band(res.summary.wire_msgs_per_cs,
                                     pred.msgs_lo, pred.msgs_hi);
    }
  }

  if (cfg.capture != nullptr)
    *cfg.capture = log->take(std::string(mutex::to_string(cfg.algo)) +
                             " n=" + std::to_string(cfg.n) +
                             " T=" + std::to_string(cfg.mean_delay) +
                             " seed=" + std::to_string(cfg.seed));
  return res;
}

void set_open_load(ExperimentConfig& cfg, double relative_load) {
  cfg.workload.mode = Workload::Config::Mode::kOpen;
  const double capacity = 1.0 / static_cast<double>(
                                    2 * cfg.mean_delay +
                                    cfg.workload.cs_duration);
  cfg.workload.arrival_rate = relative_load * capacity / cfg.n;
}

void add_algo_flag(flags::Table& t, mutex::Algo& algo) {
  std::vector<std::string> names;
  std::string help;  // the names, three to a line
  for (mutex::Algo a : mutex::all_algos()) {
    names.emplace_back(mutex::to_string(a));
    help += (names.size() == 1        ? ""
             : names.size() % 3 == 1 ? " |\n"
                                     : " | ") +
            names.back();
  }
  t.choice("--algo", "NAME",
           help + "\n(default " + std::string(mutex::to_string(algo)) + ")",
           std::move(names),
           [&algo](size_t i) { algo = mutex::all_algos()[i]; });
}

void add_experiment_flags(flags::Table& t, ExperimentConfig& cfg,
                          double& rate) {
  add_algo_flag(t, cfg.algo);
  t.number("--n", "N", "number of sites (default 25)", cfg.n, 1)
      .text("--quorum", "KIND",
            "grid | fpp | tree | majority | hqc |\n"
            "gridset[:G] | rst[:G] | singleton | all (default grid)",
            cfg.quorum)
      .number("--t", "TICKS", "mean message delay T (default 1000)",
              cfg.mean_delay, Time{1})
      .choice("--load", "MODE", "closed (saturation, default) | open",
              {"closed", "open"},  // Mode's enumerator order
              [&cfg](size_t i) {
                cfg.workload.mode = static_cast<Workload::Config::Mode>(i);
              })
      .value("--rate", "R",
             "open loop: offered load as a fraction of\n"
             "1/(2T+E) aggregate capacity (default 0.5)",
             [&rate](const std::string& v) {
               rate = flags::parse_number<double>(v, "--rate", 0);
               if (rate == 0) throw flags::UsageError("--rate must be > 0");
             })
      .number("--warmup", "TICKS", "(default 200000)", cfg.warmup, Time{0})
      .number("--measure", "TICKS", "(default 2000000)", cfg.measure,
              Time{1})
      .number("--seed", "S", "(default 1)", cfg.seed)
      .flag("--ft", "enable the §6 fault-tolerance layer",
            cfg.options.fault_tolerant)
      .value("--crash", "T:SITE", "crash SITE at time T (repeatable)",
             [&cfg](const std::string& v) {
               const auto colon = v.find(':');
               if (colon == std::string::npos)
                 throw flags::UsageError("--crash expects T:SITE, got '" + v +
                                         "'");
               cfg.crashes.push_back(
                   {flags::parse_number<Time>(v.substr(0, colon),
                                              "--crash time", 0),
                    flags::parse_number<SiteId>(v.substr(colon + 1),
                                                "--crash site", 0)});
             });
}

std::vector<ExperimentResult> replicate(const ExperimentConfig& cfg,
                                        int replications, int jobs) {
  DQME_CHECK(replications >= 1);
  SweepOptions opts;
  opts.jobs = jobs;
  return SweepRunner(opts).run(expand_seeds(cfg, replications));
}

}  // namespace dqme::harness
