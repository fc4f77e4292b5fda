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
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/table.h"
#include "obs/chrome_trace.h"
#include "rt/driver.h"
#include "verify/explorer.h"

namespace {

using namespace dqme;

void usage(const char* argv0) {
  std::cout
      << "usage: " << argv0 << " [options]\n"
      << "  --backend B      sim (discrete-event, default) | rt (real\n"
      << "                   threads: one pump thread per site on lock-free\n"
      << "                   SPSC rings; wall-clock numbers)\n"
      << "  --algo NAME      lamport | ricart-agrawala | maekawa | raymond\n"
      << "                   | suzuki-kasami | cao-singhal |"
      << " cao-singhal-noproxy\n"
      << "  --n N            number of sites (default 25)\n"
      << "  --quorum KIND    grid | fpp | tree | majority | hqc |\n"
      << "                   gridset[:G] | rst[:G] | singleton | all\n"
      << "  --t TICKS        mean message delay T (default 1000)\n"
      << "  --delay KIND     constant | uniform | exponential\n"
      << "  --load MODE      closed (saturation, default) | open\n"
      << "  --rate R         open loop: offered load as a fraction of\n"
      << "                   1/(2T+E) aggregate capacity (default 0.5)\n"
      << "  --cs TICKS       CS duration E (default 100)\n"
      << "  --exp-cs         exponential CS durations\n"
      << "  --think TICKS    closed loop think time (default 0)\n"
      << "  --warmup TICKS   (default 200000)\n"
      << "  --measure TICKS  (default 2000000)\n"
      << "  --seed S         (default 1)\n"
      << "  --locks M        lock-table size (default 1; dense LockIds\n"
      << "                   0..M-1, independent critical sections)\n"
      << "  --zipf S         open loop, --locks > 1: lock-popularity skew\n"
      << "                   (0 = uniform, default)\n"
      << "  --lock-piggyback W  staged messages for different locks to the\n"
      << "                   same site within W ticks share one wire flight\n"
      << "                   (default off)\n"
      << "  --ft             enable the §6 fault-tolerance layer\n"
      << "  --crash T:SITE   crash SITE at time T (repeatable)\n"
      << "  --no-piggyback   disable piggybacking (ablation)\n"
      << "  --trace-out FILE record the run and write Chrome trace-event\n"
      << "                   JSON (chrome://tracing / ui.perfetto.dev)\n"
      << "  --replay-schedule FILE  replay a dqme_explore schedule (its\n"
      << "                   config rides in the file; other options except\n"
      << "                   --trace-out are ignored); exits 1 when the\n"
      << "                   replay reproduces a violation\n"
      << "rt backend only (--backend rt):\n"
      << "  --entries N      aggregate CS entries to perform (default 5000)\n"
      << "  --max-seconds S  soft wall-clock stop (default 30)\n"
      << "  --outstanding K  per-site pipeline depth, --locks > 1 only\n"
      << "                   (default 8)\n"
      << "  --wire-delay-us D  emulated wire latency in microseconds — the\n"
      << "                   paper's T on real threads (default 100; 0 =\n"
      << "                   raw ring speed)\n"
      << "  --no-check       skip the safety probe and the merged\n"
      << "                   invariant-checker replay\n"
      << "(simulator-shape flags — --t, --delay, --load, --warmup, ... —\n"
      << " are rejected under --backend rt rather than silently ignored)\n"
      << "For a sim run under the online invariant checker (CS exclusion,\n"
      << "per-arbiter permission ledger, transfer conservation, FIFO,\n"
      << "liveness; crashes included) use dqme_check --algo ... --n ...\n";
}

// --backend rt: the real-threads free-run driver (rt::run_free) behind the
// same CLI. Only the flags that make sense for a wall-clock run are
// accepted; simulator-shape flags get a pointed error instead of being
// silently ignored, so a copy-pasted sim command line cannot masquerade as
// an rt measurement.
int rt_backend_main(int argc, char** argv) {
  rt::FreeRunConfig cfg;
  cfg.n = 25;
  cfg.target_entries = 5000;
  cfg.wire_delay_us = 100;
  cfg.check = true;
  cfg.quorum = "grid";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--help" || a == "-h") {
      usage(argv[0]);
      return 0;
    } else if (a == "--backend") {
      next();  // already dispatched on it
    } else if (a.rfind("--backend=", 0) == 0) {
      // already dispatched on it
    } else if (a == "--algo") {
      cfg.algo = mutex::algo_from_string(next());
    } else if (a == "--n") {
      cfg.n = std::atoi(next());
    } else if (a == "--quorum") {
      cfg.quorum = next();
    } else if (a == "--locks") {
      cfg.num_locks = std::atoi(next());
    } else if (a == "--ft") {
      cfg.fault_tolerant = true;
    } else if (a == "--seed") {
      cfg.seed = static_cast<uint64_t>(std::atoll(next()));
    } else if (a == "--entries") {
      cfg.target_entries = static_cast<uint64_t>(std::atoll(next()));
    } else if (a == "--max-seconds") {
      cfg.max_seconds = std::atof(next());
    } else if (a == "--outstanding") {
      cfg.outstanding = std::atoi(next());
    } else if (a == "--wire-delay-us") {
      cfg.wire_delay_us = static_cast<uint64_t>(std::atoll(next()));
    } else if (a == "--no-check") {
      cfg.check = false;
    } else if (a == "--t" || a == "--delay" || a == "--load" ||
               a == "--rate" || a == "--cs" || a == "--exp-cs" ||
               a == "--think" || a == "--warmup" || a == "--measure" ||
               a == "--zipf" || a == "--lock-piggyback" || a == "--ft-crash" ||
               a == "--crash" || a == "--no-piggyback" ||
               a == "--trace-out" || a == "--replay-schedule") {
      std::cerr << a
                << " is simulator-only: the rt backend runs wall-clock with "
                   "real threads (see --wire-delay-us / --entries / "
                   "--max-seconds), so simulated-time shaping does not "
                   "apply\n";
      return 2;
    } else {
      std::cerr << "unknown option: " << a << "\n";
      usage(argv[0]);
      return 2;
    }
  }

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

bool parse_args(int argc, char** argv, harness::ExperimentConfig& cfg,
                double& rate, std::string& trace_out,
                std::string& replay_schedule) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--help" || a == "-h") {
      usage(argv[0]);
      std::exit(0);
    } else if (a == "--backend") {
      next();  // main() already dispatched on it; value validated there
    } else if (a.rfind("--backend=", 0) == 0) {
      // main() already dispatched on it
    } else if (a == "--algo") {
      cfg.algo = mutex::algo_from_string(next());
    } else if (a == "--n") {
      cfg.n = std::atoi(next());
    } else if (a == "--quorum") {
      cfg.quorum = next();
    } else if (a == "--t") {
      cfg.mean_delay = std::atoll(next());
    } else if (a == "--delay") {
      const std::string kind = next();
      if (kind == "constant")
        cfg.delay_kind = harness::ExperimentConfig::DelayKind::kConstant;
      else if (kind == "uniform")
        cfg.delay_kind = harness::ExperimentConfig::DelayKind::kUniform;
      else if (kind == "exponential")
        cfg.delay_kind = harness::ExperimentConfig::DelayKind::kExponential;
      else {
        std::cerr << "unknown delay kind: " << kind << "\n";
        return false;
      }
    } else if (a == "--load") {
      const std::string mode = next();
      if (mode == "closed")
        cfg.workload.mode = harness::Workload::Config::Mode::kClosed;
      else if (mode == "open")
        cfg.workload.mode = harness::Workload::Config::Mode::kOpen;
      else {
        std::cerr << "unknown load mode: " << mode << "\n";
        return false;
      }
    } else if (a == "--rate") {
      rate = std::atof(next());
    } else if (a == "--cs") {
      cfg.workload.cs_duration = std::atoll(next());
    } else if (a == "--exp-cs") {
      cfg.workload.exponential_cs = true;
    } else if (a == "--think") {
      cfg.workload.think_time = std::atoll(next());
    } else if (a == "--warmup") {
      cfg.warmup = std::atoll(next());
    } else if (a == "--measure") {
      cfg.measure = std::atoll(next());
    } else if (a == "--seed") {
      cfg.seed = static_cast<uint64_t>(std::atoll(next()));
    } else if (a == "--locks") {
      cfg.options.num_locks = std::atoi(next());
    } else if (a == "--zipf") {
      cfg.workload.zipf_skew = std::atof(next());
    } else if (a == "--lock-piggyback") {
      cfg.lock_piggyback_window = std::atoll(next());
    } else if (a == "--ft") {
      cfg.options.fault_tolerant = true;
    } else if (a == "--no-piggyback") {
      cfg.options.piggyback = false;
    } else if (a == "--replay-schedule") {
      replay_schedule = next();
    } else if (a.rfind("--replay-schedule=", 0) == 0) {
      replay_schedule = a.substr(std::string("--replay-schedule=").size());
      if (replay_schedule.empty()) return false;
    } else if (a == "--trace-out") {
      trace_out = next();
    } else if (a.rfind("--trace-out=", 0) == 0) {
      trace_out = a.substr(std::string("--trace-out=").size());
      if (trace_out.empty()) return false;
    } else if (a == "--crash") {
      const std::string spec = next();
      const auto colon = spec.find(':');
      if (colon == std::string::npos) {
        std::cerr << "--crash expects T:SITE\n";
        return false;
      }
      cfg.crashes.push_back(
          {std::atoll(spec.substr(0, colon).c_str()),
           std::atoi(spec.substr(colon + 1).c_str())});
    } else {
      std::cerr << "unknown option: " << a << "\n";
      return false;
    }
  }
  return true;
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
    obs::ChromeTraceData data;
    data.n_sites = cfg.n;
    data.label = "replay of " + path;
    data.messages = world->trace_recorder()->events();
    data.span_events = world->span_recorder()->events();
    std::ofstream f(trace_out);
    if (!f) {
      std::cerr << "cannot write " << trace_out << "\n";
      return 2;
    }
    obs::write_chrome_trace(f, data);
    std::cout << "[trace] wrote " << trace_out << " ("
              << data.messages.size() << " messages)\n";
  }
  std::cout << (world->violations() == 0
                    ? "OK: schedule replays clean.\n"
                    : "REPRODUCED: schedule violates the invariants.\n");
  return world->violations() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) try {
  // Backend dispatch happens before the full parse: the two backends have
  // different flag vocabularies.
  std::string backend = "sim";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--backend" && i + 1 < argc)
      backend = argv[i + 1];
    else if (a.rfind("--backend=", 0) == 0)
      backend = a.substr(std::string("--backend=").size());
  }
  if (backend == "rt") return rt_backend_main(argc, argv);
  if (backend != "sim") {
    std::cerr << "unknown backend: " << backend << " (sim | rt)\n";
    return 2;
  }

  harness::ExperimentConfig cfg;
  double rate = 0.5;
  std::string trace_out;
  std::string replay_schedule;
  if (!parse_args(argc, argv, cfg, rate, trace_out, replay_schedule)) {
    usage(argv[0]);
    return 2;
  }
  if (!replay_schedule.empty())
    return replay_schedule_main(replay_schedule, trace_out);
  obs::RunCapture cap;
  if (!trace_out.empty()) cfg.capture = &cap;
  if (cfg.workload.mode == harness::Workload::Config::Mode::kOpen) {
    const double capacity =
        1.0 / static_cast<double>(2 * cfg.mean_delay +
                                  cfg.workload.cs_duration);
    cfg.workload.arrival_rate = rate * capacity / cfg.n;
  }

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
    obs::ChromeTraceData data;
    data.n_sites = cap.n_sites;
    data.label = cap.label;
    data.messages = std::move(cap.messages);
    data.span_events = std::move(cap.span_events);
    std::ofstream f(trace_out);
    if (!f) {
      std::cerr << "cannot write " << trace_out << "\n";
      return 2;
    }
    obs::write_chrome_trace(f, data);
    std::cout << "\n[trace] wrote " << trace_out << " ("
              << data.messages.size() << " messages, "
              << data.span_events.size() << " span events)\n";
  }

  const bool ok = r.summary.violations == 0 && r.drained_clean;
  std::cout << (ok ? "\nOK: safe and live.\n"
                   : "\nFAILED: safety or liveness violated.\n");
  return ok ? 0 : 1;
} catch (const dqme::CheckError& e) {
  std::cerr << "configuration error: " << e.what() << "\n";
  return 2;
}
