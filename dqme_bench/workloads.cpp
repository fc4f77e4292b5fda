#include "workloads.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <utility>

#include "common/rng.h"
#include "core/cao_singhal.h"
#include "core/failure_detector.h"
#include "mutex/factory.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "obs/invariants.h"
#include "quorum/factory.h"
#include "rt/driver.h"
#include "rt/runtime.h"
#include "sim/simulator.h"
#include "verify/parallel.h"
#include "verify/world.h"

namespace dqme::perf {

namespace {

constexpr Time kT = 1000;  // simulated T in ticks
constexpr Time kE = 100;   // CS duration E = T/10
constexpr uint64_t kRtWireDelayUs = 100;  // rt: emulated T

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double seconds_since(int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Wall-clock latency histogram, log-linear: exact below 128 ns, then 64
// buckets per power of two (values within 1.6%). A few tens of KB, so the
// bench's bookkeeping stays out of the set-up time and resident set it
// reports.
class LatencyHist {
 public:
  void add(int64_t ns) {
    ++n_;
    sum_ += static_cast<double>(ns);
    ++counts_[index(static_cast<uint64_t>(std::max<int64_t>(ns, 0)))];
  }
  void merge(const LatencyHist& o) {
    n_ += o.n_;
    sum_ += o.sum_;
    for (size_t b = 0; b < kBuckets; ++b) counts_[b] += o.counts_[b];
  }
  double mean_ns() const { return n_ > 0 ? sum_ / static_cast<double>(n_) : 0; }
  // Nearest-rank percentile (harness::Metrics' rule), at bucket midpoints.
  double percentile_ns(double p) const {
    if (n_ == 0) return 0;
    const uint64_t rank =
        static_cast<uint64_t>(p * static_cast<double>(n_ - 1) + 0.5) + 1;
    uint64_t seen = 0;
    size_t b = 0;
    for (; b + 1 < kBuckets; ++b) {
      seen += counts_[b];
      if (seen >= rank) break;
    }
    return midpoint(b);
  }

 private:
  static constexpr int kSubBits = 6;
  static constexpr uint64_t kLinear = uint64_t{2} << kSubBits;  // 128
  static constexpr size_t kBuckets = kLinear + (63 - kSubBits) * 64;

  static size_t index(uint64_t v) {
    if (v < kLinear) return static_cast<size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBits;
    return static_cast<size_t>(kLinear + (msb - kSubBits - 1) * 64 +
                               ((v >> shift) - 64));
  }
  static double midpoint(size_t b) {
    if (b < kLinear) return static_cast<double>(b);
    const size_t octave = (b - kLinear) / 64;
    const uint64_t mantissa = 64 + (b - kLinear) % 64;
    const int shift = static_cast<int>(octave) + 1;
    return static_cast<double>(mantissa << shift) +
           static_cast<double>(uint64_t{1} << shift) / 2;
  }

  std::vector<uint64_t> counts_ = std::vector<uint64_t>(kBuckets);
  uint64_t n_ = 0;
  double sum_ = 0;
};

// The Cao–Singhal message types a per-type count is reported for.
constexpr net::MsgType kReportedTypes[] = {
    net::MsgType::kRequest,  net::MsgType::kReply,
    net::MsgType::kRelease,  net::MsgType::kInquire,
    net::MsgType::kFail,     net::MsgType::kYield,
    net::MsgType::kTransfer, net::MsgType::kFailureNotice,
};

void put_msg_counts(RepResult& r, const MsgCounts& counts, double per) {
  for (net::MsgType t : kReportedTypes)
    r.values["mutex.msgs_per_op." + std::string(net::to_string(t))] =
        ratio(static_cast<double>(counts[static_cast<size_t>(t)]), per);
}

double self_ns(const BoundaryTotals& spans, Boundary b) {
  return static_cast<double>(spans[static_cast<size_t>(b)].self_ns);
}
double total_ns(const BoundaryTotals& spans, Boundary b) {
  return static_cast<double>(spans[static_cast<size_t>(b)].total_ns);
}

// Per-boundary span accounting: calls per op, total and self ns per call.
void put_span_stats(RepResult& r, const BoundaryTotals& spans, double ops) {
  for (size_t b = 0; b < kNumBoundaries; ++b) {
    const BoundaryStats& s = spans[b];
    if (s.count == 0) continue;
    const std::string key =
        "span." + std::string(to_string(static_cast<Boundary>(b)));
    const double calls = static_cast<double>(s.count);
    r.values[key + ".calls_per_op"] = ratio(calls, ops);
    r.values[key + ".total_ns"] = static_cast<double>(s.total_ns) / calls;
    r.values[key + ".self_ns"] = static_cast<double>(s.self_ns) / calls;
  }
}

uint64_t total_recoveries(const std::vector<mutex::MutexSite*>& sites) {
  uint64_t n = 0;
  for (const auto* s : sites)
    if (const auto* cs = dynamic_cast<const core::CaoSinghalSite*>(s))
      n += cs->protocol_stats().recoveries;
  return n;
}

uint64_t total_stale(const std::vector<mutex::MutexSite*>& sites) {
  uint64_t n = 0;
  for (const auto* s : sites) n += s->stale_drops();
  return n;
}

// Longest interval inside the window with no CS entry (any lock).
struct EntryGaps {
  bool is_open = false;
  Time last = 0;
  Time max_gap = 0;

  void open(Time now) {
    is_open = true;
    last = now;
    max_gap = 0;
  }
  void entered(Time now) {
    if (!is_open) return;
    max_gap = std::max(max_gap, now - last);
    last = now;
  }
  Time close(Time now) {
    is_open = false;
    return std::max(max_gap, now - last);
  }
};

// ---------------------------------------------------------------------------
// Simulator workloads

RepResult run_sim(const Workload& w, RepKind kind, Tracer* tracer) {
  const harness::ExperimentConfig& cfg = w.sim;
  DQME_CHECK_MSG(
      cfg.delay_kind == harness::ExperimentConfig::DelayKind::kConstant,
      "dqme_bench sim workloads use constant delay");
  Tracer* tr = kind == RepKind::kTraced ? tracer : nullptr;
  const double t_ticks = static_cast<double>(cfg.mean_delay);
  RepResult r;

  // --- set-up: the same construction order (and seeds) as
  // harness::run_experiment, so --check can compare the two.
  const int64_t t0 = now_ns();
  sim::Simulator sim;
  net::Network network(sim, cfg.n,
                       std::make_unique<net::ConstantDelay>(cfg.mean_delay),
                       cfg.seed * 7919 + 13);
  if (cfg.lock_piggyback_window >= 0)
    network.set_lock_piggyback(cfg.lock_piggyback_window);
  std::unique_ptr<TracedExecutor> texec;
  if (tr != nullptr) texec = std::make_unique<TracedExecutor>(network, *tr);
  net::Executor& exec =
      texec ? static_cast<net::Executor&>(*texec) : network;

  const int64_t q0 = now_ns();
  const auto quorums = quorum::make_quorum_system(cfg.quorum, cfg.n);
  r.values["quorum.build_s"] = seconds_since(q0);
  r.values["quorum.mean_k"] = quorums->mean_quorum_size();

  std::vector<std::unique_ptr<mutex::MutexSite>> sites;
  std::vector<mutex::MutexSite*> raw;
  std::vector<std::unique_ptr<TracedSite>> wrappers;
  std::vector<net::NetSite*> receivers;
  for (SiteId id = 0; id < cfg.n; ++id) {
    sites.push_back(
        mutex::make_site(cfg.algo, id, exec, quorums.get(), cfg.options));
    raw.push_back(sites.back().get());
    net::NetSite* receiver = sites.back().get();
    if (tr != nullptr) {
      wrappers.push_back(std::make_unique<TracedSite>(*sites.back(), *tr));
      receiver = wrappers.back().get();
    }
    receivers.push_back(receiver);
    network.attach(id, receiver);
  }
  std::unique_ptr<obs::InvariantChecker> checker;
  if (kind == RepKind::kChecked) {
    // No liveness watchdog: it schedules simulator events, and checked
    // reps must reproduce the unchecked event stream exactly.
    obs::InvariantOptions io;
    io.liveness_bound = 0;
    io.quorum_arbitration = mutex::algo_uses_quorum(cfg.algo);
    checker = std::make_unique<obs::InvariantChecker>(network, io);
    checker->attach_all(sites);
  }
  harness::Metrics metrics(network, cfg.options.num_locks);
  harness::Workload::Config wl = cfg.workload;
  wl.seed = cfg.seed * 104729 + 7;
  wl.num_locks = cfg.options.num_locks;
  harness::Workload workload(sim, raw, wl, &metrics);
  core::FailureDetector detector(network, cfg.detection_latency,
                                 cfg.detection_jitter, cfg.seed * 31 + 5);
  for (SiteId id = 0; id < cfg.n; ++id)
    detector.attach(id, receivers[static_cast<size_t>(id)]);
  for (const auto& crash : cfg.crashes)
    sim.schedule_at(crash.at, [&detector, &workload, victim = crash.victim] {
      workload.halt_site(victim);
      detector.crash(victim);
    });

  // Observation only: entry instants (unavailability) and aborts per site.
  EntryGaps gaps;
  std::vector<uint64_t> aborts(static_cast<size_t>(cfg.n), 0);
  for (mutex::MutexSite* s : raw) {
    s->on_enter = [prev = std::move(s->on_enter), &gaps, &sim](SiteId id,
                                                               LockId lock) {
      prev(id, lock);
      gaps.entered(sim.now());
    };
    s->on_abort = [prev = std::move(s->on_abort), &aborts](SiteId id,
                                                           LockId lock) {
      ++aborts[static_cast<size_t>(id)];
      prev(id, lock);
    };
  }
  workload.start();
  r.setup_s = seconds_since(t0);

  // --- warm-up, then the measured window.
  sim.run_until(cfg.warmup);
  metrics.reset(sim.now());
  gaps.open(sim.now());
  if (tr != nullptr) tr->reset();
  const uint64_t ev0 = sim.events_executed();
  const uint64_t stale0 = total_stale(raw);
  const double cpu0 = cpu_seconds();
  const int64_t w0 = now_ns();
  {
    Span loop(tr, Boundary::kSimLoop);
    sim.run_until(cfg.warmup + cfg.measure);
  }
  r.window_s = seconds_since(w0);
  r.cpu_s = cpu_seconds() - cpu0;
  const harness::Summary sum = metrics.summarize(sim.now());
  const Time max_gap = gaps.close(sim.now());
  const uint64_t events = sim.events_executed() - ev0;
  const uint64_t stale = total_stale(raw) - stale0;
  BoundaryTotals spans{};
  MsgCounts msgs{};
  if (tr != nullptr) {
    spans = tr->totals();
    msgs = tr->msg_counts();
  }

  // --- drain and check (harness::run_experiment's drain deadline).
  workload.drain();
  sim.run_until(sim.now() + 1000 * cfg.mean_delay +
                100 * cfg.workload.cs_duration);
  if (checker) checker->finish(sim.now());

  const double done = static_cast<double>(sum.completed);
  const uint64_t recoveries = total_recoveries(raw);
  uint64_t live_aborts = 0, all_aborts = 0;
  for (SiteId s = 0; s < cfg.n; ++s) {
    all_aborts += aborts[static_cast<size_t>(s)];
    if (network.alive(s)) live_aborts += aborts[static_cast<size_t>(s)];
  }
  r.attempted = workload.demands_issued();
  r.failed = workload.demands_outstanding() + live_aborts;
  r.ops = done;

  if (metrics.violations() > 0)
    r.errors.push_back("mutual exclusion violated " +
                       std::to_string(metrics.violations()) + " times");
  if (workload.demands_outstanding() > 0)
    r.errors.push_back("drain left " +
                       std::to_string(workload.demands_outstanding()) +
                       " demands outstanding");
  if (sum.completed == 0) r.errors.push_back("no CS completed in the window");
  if (w.expect_recovery && recoveries == 0)
    r.errors.push_back("no §6 recovery happened");
  if (checker && checker->violations() > 0)
    r.errors.push_back("invariant checker: " + checker->reports().front());

  auto& v = r.values;
  v["core.cs_per_t"] = sum.throughput * t_ticks;
  v["core.wait_p50_t"] = sum.waiting_p50 / t_ticks;
  v["core.wait_p99_t"] = sum.waiting_p99 / t_ticks;
  v["core.sync_delay_t"] = sum.sync_delay_contended / t_ticks;
  v["core.unavailability_t"] = static_cast<double>(max_gap) / t_ticks;
  v["core.proxy_share"] =
      ratio(static_cast<double>(sum.contended_proxied),
            static_cast<double>(sum.contended_proxied + sum.contended_direct));
  v["core.recoveries"] = static_cast<double>(recoveries);
  v["core.aborts"] = static_cast<double>(all_aborts);
  v["harness.queueing_mean_t"] = sum.queueing_mean / t_ticks;
  v["net.wire_msgs_per_op"] = sum.wire_msgs_per_cs;
  v["net.msgs_per_flight"] = ratio(sum.ctrl_msgs_per_cs, sum.wire_msgs_per_cs);
  v["mutex.stale_drops_per_op"] = ratio(static_cast<double>(stale), done);
  v["sim.events_per_op"] = ratio(static_cast<double>(events), done);
  v["steps_per_op"] = v["sim.events_per_op"];
  v["sim.peak_heap"] = static_cast<double>(sim.peak_heap());
  if (tr != nullptr) {
    const double L = total_ns(spans, Boundary::kSimLoop);
    v["sim.dispatch_self_frac"] = ratio(self_ns(spans, Boundary::kSimLoop), L);
    v["mutex.handler_self_frac"] =
        ratio(self_ns(spans, Boundary::kHandler), L);
    v["net.stage_self_frac"] = ratio(self_ns(spans, Boundary::kStage), L);
    v["trace.unattributed_frac"] = 1.0 - ratio(L * 1e-9, r.window_s);
    put_msg_counts(r, msgs, done);
    put_span_stats(r, spans, done);
  }

  auto& x = r.exact;
  x["completed"] = done;
  x["events_window"] = static_cast<double>(events);
  x["events_total"] = static_cast<double>(sim.events_executed());
  x["wire_total"] = static_cast<double>(network.stats().wire_messages);
  x["ctrl_total"] = static_cast<double>(network.stats().control_messages);
  x["wire_per_cs"] = sum.wire_msgs_per_cs;
  x["wait_p50"] = sum.waiting_p50;
  x["wait_p99"] = sum.waiting_p99;
  x["sync_delay"] = sum.sync_delay_contended;
  x["max_gap"] = static_cast<double>(max_gap);
  x["issued"] = static_cast<double>(workload.demands_issued());
  x["aborted"] = static_cast<double>(workload.demands_aborted());
  x["recoveries"] = static_cast<double>(recoveries);
  x["stale"] = static_cast<double>(total_stale(raw));
  return r;
}

// ---------------------------------------------------------------------------
// Real-threads workloads

RepResult run_rt(const Workload& w, RepKind kind, Tracer* tracer,
                 bool check) {
  const RtShape& shape = w.rt;
  Tracer* tr = kind == RepKind::kTraced ? tracer : nullptr;
  const double t_ns = static_cast<double>(kRtWireDelayUs) * 1e3;
  const size_t n = static_cast<size_t>(w.threads);
  const uint64_t lo = shape.warmup_cs;
  const uint64_t hi = shape.warmup_cs + shape.measure_cs;
  RepResult r;

  const int64_t t0 = now_ns();
  rt::RuntimeOptions ro;
  ro.wire_delay_us = kRtWireDelayUs;
  ro.obs_feed = check;
  rt::Runtime rtc(w.threads, ro);
  std::unique_ptr<TracedExecutor> texec;
  if (tr != nullptr) texec = std::make_unique<TracedExecutor>(rtc, *tr);
  net::Executor& exec = texec ? static_cast<net::Executor&>(*texec) : rtc;

  const int64_t q0 = now_ns();
  const auto quorums = quorum::make_quorum_system("majority", w.threads);
  r.values["quorum.build_s"] = seconds_since(q0);
  r.values["quorum.mean_k"] = quorums->mean_quorum_size();

  mutex::AlgoOptions ao;
  ao.num_locks = shape.locks;
  std::vector<std::unique_ptr<mutex::MutexSite>> sites;
  std::vector<mutex::MutexSite*> raw;
  std::vector<std::unique_ptr<TracedSite>> wrappers;
  std::vector<std::unique_ptr<rt::ObsTap>> taps;
  for (SiteId id = 0; id < w.threads; ++id) {
    sites.push_back(mutex::make_site(mutex::Algo::kCaoSinghal, id, exec,
                                     quorums.get(), ao));
    raw.push_back(sites.back().get());
    if (tr != nullptr) {
      wrappers.push_back(std::make_unique<TracedSite>(*sites.back(), *tr));
      rtc.attach(id, wrappers.back().get());
    } else {
      rtc.attach(id, sites.back().get());
    }
    if (check) taps.push_back(std::make_unique<rt::ObsTap>(rtc, *sites.back()));
  }
  rt::SafetyProbe probe(shape.locks);

  // Per-site workload state, touched only by the site's own pump thread
  // until the pumps are joined.
  struct alignas(64) Drv {
    std::vector<LockId> rotation;
    size_t next = 0;
    std::deque<LockId> entered;
    int in_service = 0;
    uint64_t issued = 0;
    uint64_t polls = 0;
    int64_t first_poll = 0;
    std::vector<int64_t> requested_at;  // per lock
    LatencyHist acquire;  // request_cs -> on_enter, in window
    LatencyHist handoff;  // release_cs -> next on_enter, same lock
    uint64_t proxied = 0;
    uint64_t direct = 0;
    int64_t max_gap = 0;
  };
  std::vector<Drv> drv(n);
  for (size_t s = 0; s < n; ++s) {
    Drv& d = drv[s];
    d.requested_at.assign(static_cast<size_t>(shape.locks), 0);
    d.rotation.resize(static_cast<size_t>(shape.locks));
    for (LockId l = 0; l < shape.locks; ++l)
      d.rotation[static_cast<size_t>(l)] = l;
    // Seeded per-site lock order (rt::run_free's rule): sites sweep the
    // table in different orders so contention spreads.
    Rng rng(w.seed * 6364136223846793005ull + static_cast<uint64_t>(s));
    for (size_t i = d.rotation.size(); i > 1; --i) {
      const size_t j = static_cast<size_t>(
          rng.uniform_int(0, static_cast<int64_t>(i) - 1));
      std::swap(d.rotation[i - 1], d.rotation[j]);
    }
  }
  std::vector<std::atomic<int64_t>> last_release(
      static_cast<size_t>(shape.locks));
  for (auto& a : last_release)
    a.store(std::numeric_limits<int64_t>::min(), std::memory_order_relaxed);

  // Window marks, each written once by the thread whose entry crosses it
  // and read after the pumps are joined.
  struct Mark {
    bool set = false;
    int64_t t = 0;
    double cpu = 0;
    rt::RuntimeStats stats;
  };
  Mark win_open, win_close;
  const auto mark = [&rtc](Mark& m, int64_t t) {
    m.t = t;
    m.cpu = cpu_seconds();
    m.stats = rtc.stats();
    m.set = true;
  };
  std::atomic<uint64_t> entries{0};
  std::atomic<int64_t> last_entry{0};
  std::atomic<bool> stop_issuing{false};
  std::atomic<bool> timed_out{false};

  for (size_t s = 0; s < n; ++s) {
    raw[s]->on_enter = [&, s](SiteId, LockId lock) {
      const int64_t t = now_ns();
      probe.enter(lock, static_cast<SiteId>(s));
      Drv& d = drv[s];
      d.entered.push_back(lock);
      const uint64_t idx = entries.fetch_add(1, std::memory_order_acq_rel);
      if (idx == lo) mark(win_open, t);
      if (idx == hi) mark(win_close, t);
      if (idx >= hi) stop_issuing.store(true, std::memory_order_release);
      if (idx < lo || idx >= hi) return;
      const int64_t req = d.requested_at[static_cast<size_t>(lock)];
      d.acquire.add(t - req);
      const int64_t rel = last_release[static_cast<size_t>(lock)].load(
          std::memory_order_acquire);
      if (rel >= req) {  // contended: queued before the previous holder left
        d.handoff.add(t - rel);
        const int hops = raw[s]->last_entry_hops(lock);
        if (hops == 1) ++d.proxied;
        if (hops == 2) ++d.direct;
      }
      const int64_t prev = last_entry.exchange(t, std::memory_order_acq_rel);
      if (prev > 0 && t > prev) d.max_gap = std::max(d.max_gap, t - prev);
    };
  }

  // Stop and abort limits: far beyond any healthy rep, well inside the
  // benchmark's per-run limit.
  constexpr double kSoftStopS = 40, kHardStopS = 80;
  const int depth = shape.locks == 1 ? 1 : shape.outstanding;
  const auto poll = [&](SiteId id) -> bool {
    Drv& d = drv[static_cast<size_t>(id)];
    if (d.first_poll == 0) d.first_poll = now_ns();
    Span ps(tr, Boundary::kPoll);
    mutex::MutexSite& site = *raw[static_cast<size_t>(id)];
    while (!d.entered.empty()) {
      const LockId lock = d.entered.front();
      d.entered.pop_front();
      probe.exit(lock, id);
      last_release[static_cast<size_t>(lock)].store(now_ns(),
                                                    std::memory_order_release);
      {
        Span rs(tr, Boundary::kRelease);
        site.release_cs(lock);
      }
      --d.in_service;
    }
    if (!stop_issuing.load(std::memory_order_acquire)) {
      size_t scanned = 0;
      while (d.in_service < depth && scanned < d.rotation.size()) {
        const LockId lock = d.rotation[d.next];
        d.next = (d.next + 1) % d.rotation.size();
        ++scanned;
        if (!site.idle(lock)) continue;
        d.requested_at[static_cast<size_t>(lock)] = now_ns();
        ++d.issued;
        ++d.in_service;
        Span qs(tr, Boundary::kRequest);
        site.request_cs(lock);
      }
    }
    if (id == 0 && (++d.polls & 1023) == 0) {
      const double t = seconds_since(t0);
      if (t > kSoftStopS) stop_issuing.store(true, std::memory_order_release);
      if (t > kHardStopS && !timed_out.exchange(true)) rtc.request_stop();
    }
    return stop_issuing.load(std::memory_order_acquire) &&
           d.in_service == 0 && d.entered.empty();
  };
  rtc.run(poll);
  const int64_t t_end = now_ns();

  // --- results (pumps joined: every per-site field is safe to read).
  int64_t started = t0;
  double lifetime_ns = 0;
  uint64_t issued = 0, proxied = 0, direct = 0;
  int64_t max_gap = 0;
  LatencyHist acquire, handoff;
  for (const Drv& d : drv) {
    started = std::max(started, d.first_poll);
    lifetime_ns += static_cast<double>(t_end - d.first_poll);
    issued += d.issued;
    proxied += d.proxied;
    direct += d.direct;
    max_gap = std::max(max_gap, d.max_gap);
    acquire.merge(d.acquire);
    handoff.merge(d.handoff);
  }
  uint64_t cs_entries = 0;
  for (const auto* s : raw) cs_entries += s->cs_entries();
  r.setup_s = static_cast<double>(started - t0) * 1e-9;
  r.attempted = issued;
  r.failed = issued > cs_entries ? issued - cs_entries : 0;

  if (timed_out.load()) r.errors.push_back("hard timeout: run did not quiesce");
  if (rtc.in_flight() != 0)
    r.errors.push_back("in_flight " + std::to_string(rtc.in_flight()) +
                       " at quiescence");
  if (probe.violations() > 0)
    r.errors.push_back("SafetyProbe: " + std::to_string(probe.violations()) +
                       " mutual exclusion violations");
  if (cs_entries != issued)
    r.errors.push_back("entries " + std::to_string(cs_entries) +
                       " != requests " + std::to_string(issued));
  if (!win_open.set || !win_close.set) {
    r.errors.push_back("measurement window never closed");
    return r;
  }
  if (check) {
    // Merged-feed replay through the invariant checker (rt::run_free's
    // audit); the network only supplies the checker's constructor seam.
    sim::Simulator dummy_sim;
    net::Network dummy_net(dummy_sim, w.threads,
                           std::make_unique<net::ConstantDelay>(1), 1);
    obs::InvariantOptions io;
    io.liveness_bound = 0;
    obs::InvariantChecker checker(dummy_net, io);
    rtc.replay_into(checker);
    if (checker.violations() > 0)
      r.errors.push_back("invariant replay: " + checker.reports().front());
  }

  const double ops = static_cast<double>(shape.measure_cs);
  r.ops = ops;
  r.window_s = static_cast<double>(win_close.t - win_open.t) * 1e-9;
  r.cpu_s = win_close.cpu - win_open.cpu;
  const rt::RuntimeStats& a = win_open.stats;
  const rt::RuntimeStats& b = win_close.stats;
  const double wire = static_cast<double>(b.wire_messages - a.wire_messages);
  const double remote =
      static_cast<double>((b.control_messages - a.control_messages) -
                          (b.local_messages - a.local_messages));
  const rt::RuntimeStats fin = rtc.stats();
  const double all_cs = static_cast<double>(cs_entries);

  auto& v = r.values;
  v["rt.acquire_p50_us"] = acquire.percentile_ns(0.50) * 1e-3;
  v["rt.acquire_p99_us"] = acquire.percentile_ns(0.99) * 1e-3;
  v["rt.handoff_p50_us"] = handoff.percentile_ns(0.50) * 1e-3;
  v["rt.handoff_p99_us"] = handoff.percentile_ns(0.99) * 1e-3;
  v["rt.spilled_msgs"] = static_cast<double>(fin.spilled_messages);
  v["core.cs_per_t"] = ratio(ops, r.window_s) * t_ns * 1e-9;
  v["core.wait_p50_t"] = v["rt.acquire_p50_us"] * 1e3 / t_ns;
  v["core.wait_p99_t"] = v["rt.acquire_p99_us"] * 1e3 / t_ns;
  v["core.sync_delay_t"] = handoff.mean_ns() / t_ns;
  v["core.unavailability_t"] = static_cast<double>(max_gap) / t_ns;
  v["core.proxy_share"] = ratio(static_cast<double>(proxied),
                                static_cast<double>(proxied + direct));
  v["core.recoveries"] = static_cast<double>(total_recoveries(raw));
  v["core.aborts"] = 0;  // without §6 fault tolerance no request aborts
  v["harness.queueing_mean_t"] = acquire.mean_ns() / t_ns;
  v["net.wire_msgs_per_op"] = wire / ops;
  v["steps_per_op"] = v["net.wire_msgs_per_op"];
  v["net.msgs_per_flight"] = ratio(remote, wire);
  v["mutex.stale_drops_per_op"] =
      ratio(static_cast<double>(total_stale(raw)), all_cs);
  if (tr != nullptr) {
    const BoundaryTotals spans = tr->totals();
    // Handlers run from the pump loop, not inside the poll step, so the
    // two are the root spans of a pump thread.
    const double busy = total_ns(spans, Boundary::kPoll) +
                        total_ns(spans, Boundary::kHandler);
    v["rt.pump_busy_frac"] = ratio(busy, lifetime_ns);
    v["trace.unattributed_frac"] = 1.0 - ratio(busy, lifetime_ns);
    v["mutex.handler_self_frac"] =
        ratio(self_ns(spans, Boundary::kHandler), lifetime_ns);
    v["net.stage_self_frac"] =
        ratio(self_ns(spans, Boundary::kStage), lifetime_ns);
    v["mutex.api_self_frac"] =
        ratio(self_ns(spans, Boundary::kRequest) +
                  self_ns(spans, Boundary::kRelease),
              lifetime_ns);
    put_msg_counts(r, tr->msg_counts(), all_cs);
    put_span_stats(r, spans, all_cs);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Explorer workload

RepResult run_explore(const Workload& w, RepKind kind, Tracer* tracer) {
  // N=4 grid, one CS per site, crash-free: a space of 867,570 schedules,
  // far more than a rep's budget.
  constexpr int kSites = 4;
  const std::string quorum = "grid";
  Tracer* tr = kind == RepKind::kTraced ? tracer : nullptr;
  const uint64_t budget = w.explore_budget;
  RepResult r;

  verify::ParallelConfig pc;
  pc.base.world.algo = mutex::Algo::kCaoSinghal;
  pc.base.world.n = kSites;
  pc.base.world.quorum = quorum;
  pc.base.world.cs_per_site = 1;
  pc.base.max_schedules = budget;
  pc.base.dpor = verify::Dpor::kSource;
  pc.workers = w.threads;

  const int64_t q0 = now_ns();
  const auto quorums = quorum::make_quorum_system(quorum, kSites);
  r.values["quorum.build_s"] = seconds_since(q0);
  r.values["quorum.mean_k"] = quorums->mean_quorum_size();

  // Set-up: the explorer plus one World, the state every replay starts
  // from. It takes microseconds, so a rep's sample is the median of five
  // constructions; the last explorer built is the one that runs.
  std::vector<double> setups;
  std::unique_ptr<verify::ParallelExplorer> explorer;
  for (int i = 0; i < 5; ++i) {
    const int64_t t0 = now_ns();
    explorer = std::make_unique<verify::ParallelExplorer>(pc);
    const verify::World initial(pc.base.world);
    setups.push_back(seconds_since(t0));
  }
  std::nth_element(setups.begin(), setups.begin() + 2, setups.end());
  r.setup_s = setups[2];

  const double cpu0 = cpu_seconds();
  const int64_t w0 = now_ns();
  verify::ParallelResult res;
  {
    Span s(tr, Boundary::kExplore);
    res = explorer->run();
  }
  r.window_s = seconds_since(w0);
  r.cpu_s = cpu_seconds() - cpu0;

  const verify::ExploreResult& m = res.merged;
  const double schedules = static_cast<double>(m.schedules);
  r.ops = schedules;
  r.attempted = m.schedules;
  r.failed = m.violations.size();
  if (!m.violations.empty())
    r.errors.push_back("explorer violation: " +
                       (m.violations.front().reports.empty()
                            ? std::string("?")
                            : m.violations.front().reports.front()));
  // The shared budget is checked at each worker's loop top, so the fleet
  // may overshoot by at most one schedule per other worker.
  if (!m.budget_exhausted || m.schedules < budget ||
      m.schedules >= budget + static_cast<uint64_t>(w.threads))
    r.errors.push_back("explored " + std::to_string(m.schedules) +
                       " schedules for a budget of " + std::to_string(budget));

  auto& v = r.values;
  v["verify.replay_steps_per_op"] =
      ratio(static_cast<double>(m.replay_steps), schedules);
  v["verify.nodes_per_op"] = ratio(static_cast<double>(m.nodes), schedules);
  v["steps_per_op"] =
      v["verify.replay_steps_per_op"] + v["verify.nodes_per_op"];
  v["verify.tasks_donated"] = static_cast<double>(res.tasks_donated);
  v["verify.steps_per_worker_s"] =
      ratio(static_cast<double>(m.nodes + m.replay_steps),
            r.window_s * static_cast<double>(w.threads));
  if (tr != nullptr) {
    const BoundaryTotals spans = tr->totals();
    v["trace.unattributed_frac"] =
        1.0 - ratio(total_ns(spans, Boundary::kExplore) * 1e-9, r.window_s);
    put_span_stats(r, spans, schedules);
  }
  return r;
}

}  // namespace

std::vector<Workload> make_workloads(uint64_t seed, bool quick) {
  // --quick shrinks every window 8x (each workload then runs well under a
  // second); the shapes stay the same.
  const uint64_t div = quick ? 8 : 1;
  const auto sim_base = [&](int n, const std::string& quorum) {
    harness::ExperimentConfig c;
    c.algo = mutex::Algo::kCaoSinghal;
    c.n = n;
    c.quorum = quorum;
    c.mean_delay = kT;
    c.workload.mode = harness::Workload::Config::Mode::kClosed;
    c.workload.cs_duration = kE;
    c.warmup = 200 * kT;
    c.seed = seed;
    return c;
  };
  std::vector<Workload> out;
  const auto add = [&](Workload w) {
    w.seed = seed;
    out.push_back(std::move(w));
  };

  {
    Workload w;
    w.name = "sim_heavy";
    w.why =
        "Table-1 heavy load, N=25 grid, 1 lock, closed loop: the event loop "
        "and the contended inquire/yield/transfer/proxy path dominate";
    w.sim = sim_base(25, "grid");
    w.sim.measure = static_cast<Time>(240'000 / div) * kT;
    w.checker_reps = true;
    add(std::move(w));
  }
  {
    Workload w;
    w.name = "sim_lock_service";
    w.why =
        "4096 locks, Zipf 0.9 open loop, piggybacking on: the per-lock "
        "state working set and the flight-join path dominate";
    w.sim = sim_base(25, "grid");
    w.sim.workload.mode = harness::Workload::Config::Mode::kOpen;
    w.sim.workload.zipf_skew = 0.9;
    w.sim.options.num_locks = 4096;
    w.sim.lock_piggyback_window = kT;
    // Aggregate demand 0.6 * H / (2T+E), H = sum_k (k+1)^-0.9: the hot
    // lock runs at 60% of one lock's conservative capacity.
    double h = 0;
    for (LockId k = 0; k < w.sim.options.num_locks; ++k)
      h += std::pow(static_cast<double>(k + 1), -0.9);
    w.sim.workload.arrival_rate =
        0.6 * h / static_cast<double>(2 * kT + kE) / w.sim.n;
    w.sim.measure = static_cast<Time>(40'000 / div) * kT;
    add(std::move(w));
  }
  {
    Workload w;
    w.name = "sim_crash";
    w.why =
        "N=15 tree in fault-tolerant mode, root and site 1 crash "
        "mid-window: the only load on failure detection, recovery and "
        "aborts";
    w.sim = sim_base(15, "tree");
    w.sim.options.fault_tolerant = true;
    w.sim.measure = static_cast<Time>(500'000 / div) * kT;
    // At 35% and 70% of the window; detection 2T + U[0, T/2].
    w.sim.crashes = {{static_cast<Time>(175'000 / div) * kT, 0},
                     {static_cast<Time>(350'000 / div) * kT, 1}};
    w.sim.detection_latency = 2 * kT;
    w.sim.detection_jitter = kT / 2;
    w.expect_recovery = true;
    add(std::move(w));
  }
  {
    Workload w;
    w.name = "rt_handoff";
    w.why =
        "real threads, majority quorum, 1 lock, T=100us: latency-bound "
        "handoffs through ring publish/consume and pump polling";
    w.family = Family::kRt;
    w.threads = kThreads;
    w.rt.warmup_cs = 400 / div;
    w.rt.measure_cs = 9'000 / div;
    add(std::move(w));
  }
  {
    Workload w;
    w.name = "rt_lock_service";
    w.why =
        "real threads, 256 locks, 32 requests in service per site: "
        "throughput-bound on per-message CPU (ring, payloads, dispatch)";
    w.family = Family::kRt;
    w.threads = kThreads;
    w.rt.locks = 256;
    w.rt.outstanding = 32;
    w.rt.warmup_cs = 22'500 / div;
    w.rt.measure_cs = 450'000 / div;
    add(std::move(w));
  }
  {
    Workload w;
    w.name = "explore_n4";
    w.why =
        "parallel source-DPOR model checking, N=4 grid, 1 CS per site: the "
        "only load on replay-based World stepping and donation";
    w.family = Family::kExplore;
    w.threads = kThreads;
    w.explore_budget = 25'000 / div;
    add(std::move(w));
  }
  return out;
}

RepResult run_rep(const Workload& w, RepKind kind, Tracer* tracer,
                  bool check) {
  switch (w.family) {
    case Family::kSim:
      return run_sim(w, kind, tracer);
    case Family::kRt:
      return run_rt(w, kind, tracer, check);
    case Family::kExplore:
      return run_explore(w, kind, tracer);
  }
  return {};
}

std::vector<std::string> check_against_harness(const Workload& w) {
  if (w.family != Family::kSim) return {};
  // A short version of the workload: window and crash instants / 100.
  Workload s = w;
  s.sim.measure = std::max<Time>(w.sim.measure / 100, 1000 * kT);
  for (auto& c : s.sim.crashes) c.at /= 100;
  const RepResult mine = run_sim(s, RepKind::kPlain, nullptr);
  const harness::ExperimentResult ref = harness::run_experiment(s.sim);
  std::vector<std::string> diffs = mine.errors;
  const auto cmp = [&](const char* what, double bench, double harness) {
    if (bench != harness)
      diffs.push_back(std::string(what) + ": bench " + std::to_string(bench) +
                      " vs harness " + std::to_string(harness));
  };
  cmp("CS completed", mine.exact.at("completed"),
      static_cast<double>(ref.summary.completed));
  cmp("wire msgs", mine.exact.at("wire_total"),
      static_cast<double>(ref.registry.counters().at("net.wire_msgs")));
  cmp("sim events", mine.exact.at("events_total"),
      static_cast<double>(ref.sim_events));
  return diffs;
}

}  // namespace dqme::perf
