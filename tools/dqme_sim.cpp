// dqme_sim — command-line experiment runner.
//
// Runs any algorithm/quorum/load combination the library supports and
// prints the full metric set; the programmable counterpart to the fixed
// E1..E9 benches. Exits non-zero on a safety or liveness failure, so it
// can sit inside shell loops and CI jobs.
//
// Examples:
//   dqme_sim --algo cao-singhal --n 49 --quorum grid
//   dqme_sim --algo maekawa --n 13 --quorum fpp --load open --rate 0.5
//   dqme_sim --algo cao-singhal --n 15 --quorum tree --ft
//            --crash 500000:0 --crash 900000:7   (one line)
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "harness/experiment.h"
#include "harness/table.h"
#include "obs/chrome_trace.h"
#include "rt/driver.h"
#include "verify/explorer.h"

namespace {

using namespace dqme;

// The rt backend starts a pump thread per site and n^2 rings of 1,024
// slots: n = 64 is already 4,096 rings.
constexpr int kMaxRtSites = 64;

void add_backend_flag(flags::Table& t, bool& rt) {
  t.choice("--backend", "B",
           "sim (discrete-event, default) | rt (real\n"
           "threads: one pump thread per site on lock-free\n"
           "SPSC rings; wall-clock numbers)",
           {"sim", "rt"}, [&rt](size_t i) { rt = i == 1; });
}

// The simulator's table: the experiment flags dqme_check shares, plus the
// workload-shaping, lock-table and capture flags only dqme_sim takes.
flags::Table sim_flags(const char* argv0, harness::ExperimentConfig& cfg,
                       double& rate, bool& rt, std::string& trace_out,
                       std::string& replay) {
  flags::Table t(argv0);
  add_backend_flag(t, rt);
  harness::add_experiment_flags(t, cfg, rate);
  t.choice("--delay", "KIND", "constant (default) | uniform | exponential",
           {"constant", "uniform", "exponential"},  // DelayKind's order
           [&cfg](size_t i) {
             cfg.delay_kind =
                 static_cast<harness::ExperimentConfig::DelayKind>(i);
           })
      .number("--cs", "TICKS", "CS duration E (default 10)",
              cfg.workload.cs_duration, Time{0})
      .flag("--exp-cs", "exponential CS durations", cfg.workload.exponential_cs)
      .number("--think", "TICKS", "closed loop think time (default 0)",
              cfg.workload.think_time, Time{0})
      .number("--locks", "M",
              "lock-table size (default 1; dense LockIds\n"
              "0..M-1, independent critical sections)",
              cfg.options.num_locks, LockId{1})
      .number("--zipf", "S",
              "open loop, --locks > 1: lock-popularity skew\n"
              "(0 = uniform, default)",
              cfg.workload.zipf_skew, 0.0)
      .number("--lock-piggyback", "W",
              "staged messages for different locks to the\n"
              "same site within W ticks share one wire flight\n"
              "(default off)",
              cfg.lock_piggyback_window)
      .flag("--no-piggyback", "disable piggybacking (ablation)",
            [&cfg] { cfg.options.piggyback = false; })
      .text("--trace-out", "FILE",
            "record the run and write Chrome trace-event\n"
            "JSON (chrome://tracing / ui.perfetto.dev)",
            trace_out)
      .text("--replay-schedule", "FILE",
            "replay a dqme_explore schedule (its config\n"
            "rides in the file; other options except\n"
            "--trace-out are ignored); exits 1 when the\n"
            "replay reproduces a violation",
            replay);
  return t;
}

// --backend rt: the real-threads free-run driver (rt::run_free) behind the
// same CLI. Its table takes only the flags that make sense for a
// wall-clock run; a flag found in the simulator's table instead gets a
// pointed error rather than being silently ignored, so a copy-pasted sim
// command line cannot masquerade as an rt measurement.
flags::Table rt_flags(const char* argv0, rt::FreeRunConfig& cfg, bool& rt) {
  flags::Table t(argv0);
  add_backend_flag(t, rt);
  harness::add_algo_flag(t, cfg.algo);
  t.number("--n", "N", "number of sites (default 25)", cfg.n, 2, kMaxRtSites)
      .text("--quorum", "KIND", "quorum construction (default grid)",
            cfg.quorum)
      .number("--locks", "M", "lock-table size (default 1)", cfg.num_locks,
              LockId{1})
      .flag("--ft", "enable the §6 fault-tolerance layer", cfg.fault_tolerant)
      .number("--seed", "S", "(default 1)", cfg.seed)
      .number("--entries", "N",
              "aggregate CS entries to perform (default 5000)",
              cfg.target_entries, uint64_t{1})
      .number("--max-seconds", "S", "soft wall-clock stop (default 30)",
              cfg.max_seconds, 0.0)
      .number("--outstanding", "K",
              "per-site pipeline depth, --locks > 1 only\n(default 8)",
              cfg.outstanding, 1)
      .number("--wire-delay-us", "D",
              "emulated wire latency in microseconds — the\n"
              "paper's T on real threads (default 100; 0 =\n"
              "raw ring speed)",
              cfg.wire_delay_us)
      .flag("--no-check", "skip the safety probe and the merged\n"
                          "invariant-checker replay",
            [&cfg] { cfg.check = false; });
  return t;
}

int rt_backend_main(const rt::FreeRunConfig& cfg) {
  std::cout << "dqme_sim [rt backend]: " << mutex::to_string(cfg.algo)
            << "  N=" << cfg.n << " (pump threads)";
  if (mutex::algo_uses_quorum(cfg.algo))
    std::cout << "  quorum=" << cfg.quorum;
  std::cout << "  locks=" << cfg.num_locks
            << "  wire_delay=" << cfg.wire_delay_us << "us"
            << "  seed=" << cfg.seed << "\n\n";

  const rt::FreeRunResult r = rt::run_free(cfg);

  harness::Table out({"metric", "value"});
  using harness::Table;
  out.add_row({"CS entries", Table::integer(r.cs_entries)});
  out.add_row({"wall seconds", Table::num(r.wall_seconds, 3)});
  out.add_row({"handoffs / sec", Table::num(r.handoffs_per_sec, 1)});
  out.add_row({"wire messages / sec", Table::num(r.wire_msgs_per_sec, 1)});
  out.add_row({"wire messages", Table::integer(r.stats.wire_messages)});
  out.add_row({"delivered messages",
               Table::integer(r.stats.delivered_messages)});
  out.add_row({"ring overflows (spilled)",
               Table::integer(r.stats.spilled_messages)});
  out.add_row({"pump parks", Table::integer(r.stats.parks)});
  out.add_row({"pump time parked (us)", Table::integer(r.stats.parked_us)});
  out.add_row({"parked pumps woken", Table::integer(r.stats.wakeups_sent)});
  out.add_row({"late wakes (timed park past due)",
               Table::integer(r.stats.late_wakes)});
  if (cfg.check) {
    out.add_row({"safety probe violations",
                 Table::integer(r.probe_violations)});
    out.add_row({"invariant violations (merged replay)",
                 Table::integer(r.violations)});
  }
  out.print(std::cout);
  for (const std::string& rep : r.reports) std::cout << "  " << rep << "\n";

  std::cout << (r.ok ? "\nOK: safe and live.\n"
                     : "\nFAILED: " +
                           (r.error.empty() ? "violations detected" : r.error) +
                           "\n");
  return r.ok ? 0 : 1;
}

// Replays a schedule emitted by dqme_explore --repro-out: rebuilds the
// World the schedule's embedded config describes, re-applies every action,
// and reports what the invariant checker flags. Deterministic, so the
// explorer's counterexample reproduces exactly.
int replay_schedule_main(const std::string& path,
                         const std::string& trace_out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot read " << path << "\n";
    return 2;
  }
  verify::WorldConfig cfg;
  std::vector<verify::Action> actions;
  std::string err;
  if (!verify::read_schedule(in, cfg, actions, &err)) {
    std::cerr << path << ": " << err << "\n";
    return 2;
  }
  const bool capture = !trace_out.empty();
  auto world = verify::replay_schedule(cfg, actions, capture);

  std::cout << "dqme_sim --replay-schedule: " << mutex::to_string(cfg.algo)
            << "  N=" << cfg.n << "  quorum=" << cfg.quorum
            << "  cs/site=" << cfg.cs_per_site;
  if (cfg.mutation != verify::Mutation::kNone)
    std::cout << "  mutation=" << verify::to_string(cfg.mutation);
  std::cout << "\n  " << actions.size() << " actions, sealed="
            << (world->sealed() ? "yes" : "no") << ", violations="
            << world->violations() << "\n";
  for (const std::string& r : world->reports()) std::cout << "  " << r
                                                          << "\n";
  if (capture) {
    obs::Recording run = world->event_log()->recording();
    run.label = "replay of " + path;
    if (!obs::write_chrome_trace(trace_out, run, std::cout)) return 2;
  }
  std::cout << (world->violations() == 0
                    ? "OK: schedule replays clean.\n"
                    : "REPRODUCED: schedule violates the invariants.\n");
  return world->violations() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) try {
  // Both backends parse the same command line, each with its own table:
  // the sim table first (it knows --backend), then, for --backend rt, the
  // rt table, which looks up whatever it does not take in the sim table.
  bool use_rt = false;
  harness::ExperimentConfig cfg;
  double rate = 0.5;
  std::string trace_out;
  std::string replay_schedule;
  flags::Table sim = sim_flags(argv[0], cfg, rate, use_rt, trace_out,
                               replay_schedule);
  rt::FreeRunConfig rcfg;
  rcfg.n = 25;
  rcfg.target_entries = 5000;
  rcfg.wire_delay_us = 100;
  rcfg.check = true;
  rcfg.quorum = "grid";
  const flags::Table rt = rt_flags(argv[0], rcfg, use_rt);
  std::ostringstream rt_help;
  rt_help << "rt backend only (--backend rt):\n";
  rt.entries(rt_help, &sim);
  rt_help << "(--n is at most " << kMaxRtSites
          << " under --backend rt: a pump thread per site)\n"
             "(simulator-shape flags — --t, --delay, --load, --warmup, ... —\n"
             " are rejected under --backend rt rather than silently ignored)\n"
             "For a sim run under the online invariant checker (CS exclusion,\n"
             "per-arbiter permission ledger, transfer conservation, FIFO,\n"
             "liveness; crashes included) use dqme_check --algo ... --n ...\n";
  sim.epilog(rt_help.str());

  const std::vector<std::string> rest =
      sim.parse_or_exit(argc, argv, /*pass_through=*/true);
  if (use_rt) {
    const std::vector<std::string> rt_rest = rt.parse_or_exit(argc, argv, true);
    if (!rt_rest.empty())
      rt.fail(sim.has(rt_rest.front())
                  ? rt_rest.front() +
                        " is simulator-only: the rt backend runs wall-clock "
                        "with real threads (see --wire-delay-us / --entries "
                        "/ --max-seconds), so simulated-time shaping does "
                        "not apply"
                  : flags::unknown_argument(rt_rest.front()));
    return rt_backend_main(rcfg);
  }
  if (!rest.empty())
    sim.fail(rt.has(rest.front()) ? rest.front() + " needs --backend rt"
                                  : flags::unknown_argument(rest.front()));

  if (!replay_schedule.empty())
    return replay_schedule_main(replay_schedule, trace_out);
  obs::Recording cap;
  if (!trace_out.empty()) cfg.capture = &cap;
  if (cfg.workload.mode == harness::Workload::Config::Mode::kOpen)
    harness::set_open_load(cfg, rate);

  const harness::ExperimentResult r = harness::run_experiment(cfg);
  const double t = static_cast<double>(cfg.mean_delay);

  std::cout << "dqme_sim: " << mutex::to_string(cfg.algo) << "  N=" << cfg.n;
  if (mutex::algo_uses_quorum(cfg.algo))
    std::cout << "  quorum=" << cfg.quorum << "  K=" << r.mean_quorum_size;
  std::cout << "  T=" << cfg.mean_delay << "  seed=" << cfg.seed;
  if (cfg.options.num_locks > 1)
    std::cout << "  locks=" << cfg.options.num_locks
              << "  zipf=" << cfg.workload.zipf_skew;
  std::cout << "\n\n";

  harness::Table out({"metric", "value"});
  using harness::Table;
  out.add_row({"CS completed (window)", Table::integer(r.summary.completed)});
  out.add_row({"wire messages / CS",
               Table::num(r.summary.wire_msgs_per_cs, 2)});
  out.add_row({"control messages / CS",
               Table::num(r.summary.ctrl_msgs_per_cs, 2)});
  out.add_row({"sync delay / T (contended)",
               Table::num(r.sync_delay_in_t, 3)});
  out.add_row({"throughput (CS per T)",
               Table::num(r.summary.throughput * t, 3)});
  out.add_row({"mean waiting / T",
               Table::num(r.summary.waiting_mean / t, 2)});
  out.add_row({"max waiting / T", Table::num(r.summary.waiting_max / t, 2)});
  out.add_row({"mean response / T",
               Table::num(r.summary.response_mean / t, 2)});
  out.add_row({"fairness (Jain)", Table::num(r.summary.fairness_jain, 3)});
  out.add_row({"ME violations", Table::integer(r.summary.violations)});
  out.add_row({"demands issued/completed/aborted",
               Table::integer(r.demands_issued) + "/" +
                   Table::integer(r.demands_completed) + "/" +
                   Table::integer(r.demands_aborted)});
  out.add_row({"drained clean", r.drained_clean ? "yes" : "NO"});
  out.add_row({"stale drops", Table::integer(r.stale_drops)});
  if (cfg.algo == mutex::Algo::kCaoSinghal ||
      cfg.algo == mutex::Algo::kCaoSinghalNoProxy) {
    out.add_row({"replies forwarded / direct",
                 Table::integer(r.protocol_stats.replies_forwarded) + " / " +
                     Table::integer(r.protocol_stats.replies_direct)});
    out.add_row({"yields", Table::integer(r.protocol_stats.yields_sent)});
    out.add_row({"§6 recoveries",
                 Table::integer(r.protocol_stats.recoveries)});
  }
  out.print(std::cout);

  if (!trace_out.empty()) {
    std::cout << "\n";
    if (!obs::write_chrome_trace(trace_out, cap, std::cout)) return 2;
  }

  const bool ok = r.summary.violations == 0 && r.drained_clean;
  std::cout << (ok ? "\nOK: safe and live.\n"
                   : "\nFAILED: safety or liveness violated.\n");
  return ok ? 0 : 1;
} catch (const dqme::CheckError& e) {
  std::cerr << "configuration error: " << e.what() << "\n";
  return 2;
}
