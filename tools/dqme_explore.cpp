// dqme_explore — schedule-space model checker CLI (src/verify).
//
// Drives the deterministic simulator through every (DPOR-reduced)
// message-delivery interleaving of a small configuration and runs the full
// invariant set on each schedule. Finds the adversarial orderings a single
// seeded run never produces; when it finds a violation it emits a minimal
// replayable schedule that `dqme_sim --replay-schedule` reproduces.
//
// Two reductions (--dpor): `sleep` is the conservative touched-site
// relation, `source` (the default) refines crash dependence to the
// victim's locality — strictly fewer schedules on crash grids, same
// invariant coverage. `--workers K` explores in parallel with work
// stealing; merged counts and the first counterexample are byte-identical
// to the single-threaded run.
//
// Examples:
//   dqme_explore --algo cao-singhal --n 3 --cs-per-site 2
//   dqme_explore --n 3 --crashes 1 --compare          # sleep-vs-source
//   dqme_explore --n 4 --crashes 1 --workers 8        # parallel
//   dqme_explore --algo maekawa --n 3 --budget 50000 --frontier-out f.json
//   dqme_explore --mutate double-grant --repro-out repro.json
//   dqme_explore --preset smoke --json smoke.json
//   dqme_explore --preset n4 --workers 8 --json n4.json
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "harness/experiment.h"
#include "obs/chrome_trace.h"
#include "verify/explorer.h"
#include "verify/parallel.h"

namespace {

using namespace dqme;

// Each worker is an OS thread; beyond this the host runs out of threads
// long before the search gets faster.
constexpr int kMaxWorkers = 256;

struct Options {
  verify::ExplorerConfig explorer;
  int workers = 1;
  size_t split_depth = 0;  // 0 = ParallelExplorer default
  bool compare_naive = false;
  bool compare_dpor = false;
  std::string repro_out;
  std::string trace_out;
  std::string flightrec_out;
  std::string json_out;
  std::string frontier_out;
  std::string resume;
  std::string preset;
};

flags::Table explore_flags(const char* argv0, Options& opt) {
  verify::ExplorerConfig& ex = opt.explorer;
  ex.dpor = verify::Dpor::kSource;  // CLI default; the library stays kSleep
  flags::Table t(argv0);
  harness::add_algo_flag(t, ex.world.algo);
  t.number("--n", "N", "number of sites (default 3)", ex.world.n, 2)
      .text("--quorum", "KIND", "quorum construction (default grid)",
            ex.world.quorum)
      .number("--cs-per-site", "K", "CS entries each site wants (default 2)",
              ex.world.cs_per_site, 1)
      .number("--depth", "D", "truncate schedules after D actions (0 = off)",
              ex.max_depth, 0)
      .number("--budget", "S", "stop after S complete schedules (0 = off)",
              ex.max_schedules)
      .number("--nodes", "M", "stop after M explored actions (0 = off)",
              ex.max_nodes)
      .number("--crashes", "K", "allow up to K crash actions per schedule",
              ex.world.max_crashes, 0)
      .value("--crash-sites", "\"A B\"",
             "candidate victims (default: site n-1)",
             [&opt](const std::string& v) {
               std::vector<SiteId>& sites = opt.explorer.world.crash_sites;
               sites.clear();
               std::istringstream in(v);
               for (std::string tok; in >> tok;)
                 sites.push_back(
                     flags::parse_number<SiteId>(tok, "--crash-sites", 0));
               if (sites.empty())
                 throw flags::UsageError("--crash-sites needs a site");
             })
      .flag("--ft", "§6 fault-tolerance layer (implied by\n--crashes > 0)",
            ex.world.fault_tolerant)
      .value("--mutate", "NAME",
             "seeded fault: double-grant | lost-transfer |\n"
             "fifo-inversion | deadlock-ordering",
             [&ex](const std::string& v) {
               ex.world.mutation = verify::mutation_from_string(v);
             })
      .value("--dpor", "MODE",
             "dependence relation: source (default) |\n"
             "sleep (conservative, crash vs everything)",
             [&ex](const std::string& v) {
               ex.dpor = verify::dpor_from_string(v);
             })
      .number("--workers", "K",
              "parallel exploration with K worker threads\n"
              "(default 1; counts stay byte-identical)",
              opt.workers, 1, kMaxWorkers)
      .number("--split-depth", "D",
              "task-split depth for --workers (default 2)", opt.split_depth)
      .flag("--no-por", "naive DFS, no reduction at all",
            [&ex] { ex.por = false; })
      .flag("--compare", "run sleep and source DPOR, report the ratio",
            opt.compare_dpor)
      .flag("--compare-naive", "run reduced and naive, report both + ratio",
            opt.compare_naive)
      .flag("--keep-going", "collect every violation, not just the first",
            [&ex] { ex.stop_on_violation = false; })
      .flag("--no-minimize", "keep counterexamples unshrunk",
            [&ex] { ex.minimize = false; })
      .text("--repro-out", "FILE",
            "write the first violation as a replayable\n"
            "schedule (dqme_sim --replay-schedule FILE)",
            opt.repro_out)
      .text("--trace-out", "FILE", "Chrome trace of the first counterexample",
            opt.trace_out)
      .text("--flightrec-out", "FILE",
            "flight-recorder dump of the replayed\n"
            "counterexample (ring tail ends in the\n"
            "violation)",
            opt.flightrec_out)
      .text("--json", "FILE", "machine-readable report", opt.json_out)
      .text("--frontier-out", "FILE",
            "serialize the remaining work when a budget\n"
            "suspends the search (resumable at any\n"
            "--workers count)",
            opt.frontier_out)
      .text("--resume", "FILE", "continue from a saved frontier (v1 or v2)",
            opt.resume)
      .choice("--preset", "NAME",
              "smoke: CI gate, cao-singhal + maekawa at N=3,\n"
              "bounded budget, expects 0 violations;\n"
              "n4: CI gate, exhaustive cao-singhal N=4 with one\n"
              "crash, expects COMPLETE and 0 violations",
              {"smoke", "n4"},
              [&opt](size_t i) { opt.preset = i == 0 ? "smoke" : "n4"; });
  return t;
}

// Derived settings, once the whole command line is in.
void finish_options(const flags::Table& t, Options& opt) {
  verify::WorldConfig& w = opt.explorer.world;
  if (w.max_crashes > 0) {
    // Crash branching exercises the §6 recovery layer, which only the
    // fault-tolerant Cao-Singhal configuration implements.
    w.fault_tolerant = true;
    if (w.crash_sites.empty())
      w.crash_sites = {static_cast<SiteId>(w.n - 1)};
  }
  for (SiteId v : w.crash_sites)
    if (v >= w.n)
      t.fail("--crash-sites: site " + std::to_string(v) +
             " is outside 0.." + std::to_string(w.n - 1));
}

// One exploration — sequential or parallel — behind a single seam, so the
// report/frontier plumbing does not care which engine ran.
struct RunOutcome {
  verify::ExploreResult result;
  double wall_ms = 0;
  int workers = 1;
  uint64_t tasks_run = 0;
  uint64_t tasks_donated = 0;
  bool parallel = false;
  // Engine kept alive for save_frontier after a budget suspension.
  std::unique_ptr<verify::Explorer> seq;
  std::unique_ptr<verify::ParallelExplorer> par;

  void save_frontier(std::ostream& os) const {
    if (parallel)
      par->save_frontier(os);
    else
      seq->save_frontier(os);
  }
  const verify::WorldConfig& world() const {
    return parallel ? par->config().base.world : seq->config().world;
  }
};

int frontier_version(const std::string& path) {
  std::ifstream f(path);
  std::string line;
  long marker = 0;
  if (f && std::getline(f, line) &&
      json_field_num(line, "dqme_frontier", marker))
    return static_cast<int>(marker);
  return 0;
}

// Runs one exploration. `resume` may be empty; returns false on a resume
// file that does not load.
bool run_once(const verify::ExplorerConfig& cfg, int workers,
              size_t split_depth, const std::string& resume,
              RunOutcome& out) {
  // The v2 multi-task frontier needs the parallel driver even at
  // --workers 1; plain v1 keeps the sequential engine byte-compatible.
  out.parallel =
      workers > 1 || (!resume.empty() && frontier_version(resume) == 2);
  out.workers = workers;
  const auto start = std::chrono::steady_clock::now();
  if (out.parallel) {
    verify::ParallelConfig pc;
    pc.base = cfg;
    pc.workers = workers;
    pc.split_depth = split_depth;
    out.par = std::make_unique<verify::ParallelExplorer>(pc);
    if (!resume.empty()) {
      std::ifstream f(resume);
      std::string err;
      if (!f || !out.par->load_frontier(f, &err)) {
        std::cerr << "cannot resume from " << resume << ": " << err << "\n";
        return false;
      }
    }
    verify::ParallelResult pr = out.par->run();
    out.result = std::move(pr.merged);
    out.tasks_run = pr.tasks_run;
    out.tasks_donated = pr.tasks_donated;
  } else {
    out.seq = std::make_unique<verify::Explorer>(cfg);
    if (!resume.empty()) {
      std::ifstream f(resume);
      std::string err;
      if (!f || !out.seq->load_frontier(f, &err)) {
        std::cerr << "cannot resume from " << resume << ": " << err << "\n";
        return false;
      }
    }
    out.result = out.seq->run();
  }
  const auto end = std::chrono::steady_clock::now();
  out.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  return true;
}

const char* reduction_label(const verify::ExplorerConfig& cfg) {
  if (!cfg.por) return "[naive DFS]";
  return cfg.dpor == verify::Dpor::kSource ? "[source-set DPOR]"
                                           : "[sleep-set POR]";
}

void print_result(const char* label, const verify::ExplorerConfig& cfg,
                  const RunOutcome& out) {
  const verify::ExploreResult& r = out.result;
  std::cout << label << mutex::to_string(cfg.world.algo)
            << "  N=" << cfg.world.n << "  quorum=" << cfg.world.quorum
            << "  cs/site=" << cfg.world.cs_per_site
            << "  crashes<=" << cfg.world.max_crashes << "  "
            << reduction_label(cfg) << "\n";
  if (out.parallel)
    std::cout << "  workers " << out.workers << "  tasks " << out.tasks_run
              << " (" << out.tasks_donated << " donated)\n";
  std::cout << "  schedules " << r.schedules << " (truncated " << r.truncated
            << ")  nodes " << r.nodes << "  replays " << r.replays
            << "  restores " << r.restores << " (" << r.replay_steps
            << " steps)  pruned " << r.sleep_skips
            << "  " << (r.complete            ? "COMPLETE"
                        : r.budget_exhausted  ? "BUDGET EXHAUSTED"
                                              : "STOPPED")
            << "  " << out.wall_ms << " ms\n";
  for (const verify::Violation& v : r.violations) {
    std::cout << "  VIOLATION (" << v.schedule.size() << " actions): "
              << verify::encode_actions(v.schedule) << "\n";
    for (const std::string& rep : v.reports) std::cout << "    " << rep
                                                       << "\n";
  }
}

void write_json_report(std::ostream& os, const verify::ExplorerConfig& cfg,
                       const RunOutcome& out,
                       const verify::ExploreResult* naive,
                       double naive_wall_ms,
                       const verify::ExploreResult* other_dpor,
                       double other_wall_ms) {
  const verify::ExploreResult& r = out.result;
  os << "{\"dqme_explore\":1,";
  verify::write_config_fields(os, cfg.world);
  os << ",\n\"max_depth\":" << cfg.max_depth << ",\"por\":"
     << (cfg.por ? "true" : "false") << ",\"dpor\":\""
     << verify::to_string(cfg.dpor) << "\",\"workers\":" << out.workers
     << ",\"schedules\":" << r.schedules
     << ",\"truncated\":" << r.truncated << ",\"nodes\":" << r.nodes
     << ",\"replays\":" << r.replays << ",\"restores\":" << r.restores
     << ",\"replay_steps\":" << r.replay_steps
     << ",\"sleep_skips\":" << r.sleep_skips << ",\"complete\":"
     << (r.complete ? "true" : "false") << ",\"budget_exhausted\":"
     << (r.budget_exhausted ? "true" : "false")
     << ",\"violations\":" << r.violations.size() << ",\"wall_ms\":"
     << out.wall_ms;
  if (out.parallel)
    os << ",\n\"tasks\":" << out.tasks_run
       << ",\"tasks_donated\":" << out.tasks_donated;
  if (naive != nullptr) {
    os << ",\n\"naive_schedules\":" << naive->schedules
       << ",\"naive_nodes\":" << naive->nodes << ",\"naive_complete\":"
       << (naive->complete ? "true" : "false") << ",\"naive_wall_ms\":"
       << naive_wall_ms << ",\"por_schedule_ratio\":"
       << (r.schedules > 0
               ? static_cast<double>(naive->schedules) /
                     static_cast<double>(r.schedules)
               : 0.0)
       << ",\"por_node_ratio\":"
       << (r.nodes > 0 ? static_cast<double>(naive->nodes) /
                             static_cast<double>(r.nodes)
                       : 0.0);
  }
  if (other_dpor != nullptr) {
    // The configured mode is the headline run; the other relation ran for
    // the ratio. Keyed by mode name so the fields read the same whichever
    // direction the comparison went.
    const bool main_is_source = cfg.dpor == verify::Dpor::kSource;
    const uint64_t sleep_schedules =
        main_is_source ? other_dpor->schedules : r.schedules;
    const uint64_t source_schedules =
        main_is_source ? r.schedules : other_dpor->schedules;
    const uint64_t sleep_nodes =
        main_is_source ? other_dpor->nodes : r.nodes;
    const uint64_t source_nodes =
        main_is_source ? r.nodes : other_dpor->nodes;
    os << ",\n\"sleep_schedules\":" << sleep_schedules
       << ",\"source_schedules\":" << source_schedules
       << ",\"sleep_nodes\":" << sleep_nodes
       << ",\"source_nodes\":" << source_nodes
       << ",\"other_dpor_wall_ms\":" << other_wall_ms
       << ",\"dpor_schedule_ratio\":"
       << (source_schedules > 0
               ? static_cast<double>(sleep_schedules) /
                     static_cast<double>(source_schedules)
               : 0.0)
       << ",\"dpor_node_ratio\":"
       << (source_nodes > 0 ? static_cast<double>(sleep_nodes) /
                                  static_cast<double>(source_nodes)
                            : 0.0);
  }
  os << ",\n\"violation_reports\":[";
  bool first = true;
  for (const verify::Violation& v : r.violations)
    for (const std::string& rep : v.reports) {
      if (!first) os << ",";
      first = false;
      os << json_string(rep);
    }
  os << "]}\n";
}

// Writes the counterexample artifacts for the first recorded violation.
bool write_violation_artifacts(const Options& opt,
                               const verify::ExploreResult& r) {
  if (r.violations.empty()) return true;
  const verify::Violation& v = r.violations.front();
  if (!opt.repro_out.empty()) {
    std::ofstream f(opt.repro_out);
    if (!f) {
      std::cerr << "cannot write " << opt.repro_out << "\n";
      return false;
    }
    verify::write_schedule(f, opt.explorer.world, v.schedule, v.reports);
    std::cout << "[repro] wrote " << opt.repro_out << " ("
              << v.schedule.size() << " actions) — replay with: dqme_sim "
              << "--replay-schedule " << opt.repro_out << "\n";
  }
  if (!opt.trace_out.empty() || !opt.flightrec_out.empty()) {
    auto world =
        verify::replay_schedule(opt.explorer.world, v.schedule, true);
    if (!opt.trace_out.empty()) {
      obs::Recording run = world->event_log()->recording();
      run.label = "dqme_explore counterexample (" +
                  std::string(mutex::to_string(opt.explorer.world.algo)) +
                  ")";
      if (!obs::write_chrome_trace(opt.trace_out, run, std::cout))
        return false;
    }
    if (!opt.flightrec_out.empty()) {
      // The replayed World wires its checker into the capture-mode flight
      // recorder, so the ring now ends with the replayed violation.
      obs::FlightRecorder* fr = world->flight_recorder();
      if (fr == nullptr || !fr->dump_to(opt.flightrec_out)) {
        std::cerr << "cannot write " << opt.flightrec_out << "\n";
        return false;
      }
      std::cout << "[flightrec] wrote " << opt.flightrec_out << " ("
                << fr->size() << " ring events)\n";
    }
  }
  return true;
}

// CI gate: two protocols, bounded budget, zero tolerance for violations.
// Passes when each run either covered its whole (reduced) space or explored
// its full schedule budget — and nothing was flagged. Honors --workers (the
// TSan job runs this preset at 8 to exercise the parallel driver).
int run_smoke(const Options& opt) {
  struct SmokeRun {
    const char* algo;
    uint64_t budget;
  };
  const SmokeRun runs[] = {{"cao-singhal", 12000}, {"maekawa", 12000}};
  uint64_t total_schedules = 0;
  uint64_t total_violations = 0;
  bool all_covered = true;
  std::ostringstream json;
  json << "{\"dqme_explore_smoke\":1,\"workers\":" << opt.workers
       << ",\"runs\":[\n";
  for (size_t i = 0; i < std::size(runs); ++i) {
    verify::ExplorerConfig cfg;
    cfg.world.algo = mutex::algo_from_string(runs[i].algo);
    cfg.world.n = 3;
    cfg.world.quorum = "grid";
    cfg.world.cs_per_site = 2;
    cfg.dpor = opt.explorer.dpor;
    cfg.max_schedules = runs[i].budget;
    RunOutcome out;
    if (!run_once(cfg, opt.workers, opt.split_depth, "", out)) return 2;
    print_result("[smoke] ", cfg, out);
    total_schedules += out.result.schedules;
    total_violations += out.result.violations.size();
    if (!out.result.complete && !out.result.budget_exhausted)
      all_covered = false;
    if (i > 0) json << ",\n";
    write_json_report(json, cfg, out, nullptr, 0, nullptr, 0);
    if (out.result.budget_exhausted && !opt.frontier_out.empty()) {
      const std::string path =
          opt.frontier_out + "." + std::string(runs[i].algo);
      std::ofstream f(path);
      if (f) out.save_frontier(f);
    }
  }
  json << "],\"total_schedules\":" << total_schedules
       << ",\"total_violations\":" << total_violations << "}\n";
  if (!opt.json_out.empty()) {
    std::ofstream f(opt.json_out);
    if (!f) {
      std::cerr << "cannot write " << opt.json_out << "\n";
      return 2;
    }
    f << json.str();
  }
  const bool pass =
      total_violations == 0 && all_covered && total_schedules >= 10000;
  std::cout << "[smoke] total schedules " << total_schedules
            << ", violations " << total_violations << " -> "
            << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}

// CI gate: the headline exhaustive run — cao-singhal N=4 with one crash
// allowed, source-set DPOR, no budget. Pass = COMPLETE with 0 violations.
int run_n4(const Options& opt) {
  verify::ExplorerConfig cfg;
  cfg.world.algo = mutex::Algo::kCaoSinghal;
  cfg.world.n = 4;
  cfg.world.quorum = "grid";
  cfg.world.cs_per_site = 1;
  cfg.world.fault_tolerant = true;
  cfg.world.max_crashes = 1;
  cfg.world.crash_sites = {3};
  cfg.dpor = opt.explorer.dpor;
  // Honor an explicit --budget (a bounded probe still writes a resumable
  // frontier below); the gate itself only passes on COMPLETE.
  cfg.max_schedules = opt.explorer.max_schedules;
  RunOutcome out;
  if (!run_once(cfg, opt.workers, opt.split_depth, opt.resume, out))
    return 2;
  print_result("[n4] ", cfg, out);
  if (out.result.budget_exhausted && !opt.frontier_out.empty()) {
    std::ofstream f(opt.frontier_out);
    if (f) {
      out.save_frontier(f);
      std::cout << "[n4] wrote " << opt.frontier_out
                << " — continue with --resume " << opt.frontier_out << "\n";
    }
  }
  if (!opt.json_out.empty()) {
    std::ofstream f(opt.json_out);
    if (!f) {
      std::cerr << "cannot write " << opt.json_out << "\n";
      return 2;
    }
    write_json_report(f, cfg, out, nullptr, 0, nullptr, 0);
  }
  const bool pass = out.result.complete && out.result.violations.empty();
  std::cout << "[n4] " << out.result.schedules << " schedules, "
            << out.result.violations.size() << " violations -> "
            << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) try {
  Options opt;
  const flags::Table t = explore_flags(argv[0], opt);
  t.parse_or_exit(argc, argv);
  finish_options(t, opt);
  if (opt.preset == "smoke") return run_smoke(opt);
  if (opt.preset == "n4") return run_n4(opt);

  RunOutcome out;
  if (!run_once(opt.explorer, opt.workers, opt.split_depth, opt.resume,
                out))
    return 2;
  // The frontier carries the WorldConfig (and DPOR mode) it was saved
  // under; later artifact writers need the loaded values.
  if (!opt.resume.empty()) opt.explorer.world = out.world();
  print_result("dqme_explore: ", opt.explorer, out);

  const verify::ExploreResult* naive = nullptr;
  verify::ExploreResult naive_result;
  double naive_wall_ms = 0;
  if (opt.compare_naive) {
    verify::ExplorerConfig naive_cfg = opt.explorer;
    naive_cfg.por = false;
    RunOutcome naive_out;
    if (!run_once(naive_cfg, opt.workers, opt.split_depth, "", naive_out))
      return 2;
    print_result("naive:        ", naive_cfg, naive_out);
    naive_result = std::move(naive_out.result);
    naive_wall_ms = naive_out.wall_ms;
    naive = &naive_result;
    if (out.result.schedules > 0)
      std::cout << "POR reduction: " << naive_result.schedules << " / "
                << out.result.schedules << " = "
                << static_cast<double>(naive_result.schedules) /
                       static_cast<double>(out.result.schedules)
                << "x schedules\n";
  }

  const verify::ExploreResult* other = nullptr;
  verify::ExploreResult other_result;
  double other_wall_ms = 0;
  if (opt.compare_dpor && opt.explorer.por) {
    verify::ExplorerConfig other_cfg = opt.explorer;
    other_cfg.dpor = other_cfg.dpor == verify::Dpor::kSource
                         ? verify::Dpor::kSleep
                         : verify::Dpor::kSource;
    RunOutcome other_out;
    if (!run_once(other_cfg, opt.workers, opt.split_depth, "", other_out))
      return 2;
    print_result("compare:      ", other_cfg, other_out);
    other_result = std::move(other_out.result);
    other_wall_ms = other_out.wall_ms;
    other = &other_result;
    const uint64_t sleep_s =
        opt.explorer.dpor == verify::Dpor::kSource ? other_result.schedules
                                                   : out.result.schedules;
    const uint64_t source_s =
        opt.explorer.dpor == verify::Dpor::kSource ? out.result.schedules
                                                   : other_result.schedules;
    if (source_s > 0)
      std::cout << "DPOR reduction: sleep " << sleep_s << " / source "
                << source_s << " = "
                << static_cast<double>(sleep_s) /
                       static_cast<double>(source_s)
                << "x schedules\n";
  }

  if (!write_violation_artifacts(opt, out.result)) return 2;
  if (out.result.budget_exhausted && !opt.frontier_out.empty()) {
    std::ofstream f(opt.frontier_out);
    if (!f) {
      std::cerr << "cannot write " << opt.frontier_out << "\n";
      return 2;
    }
    out.save_frontier(f);
    std::cout << "[frontier] wrote " << opt.frontier_out
              << " — continue with --resume " << opt.frontier_out << "\n";
  }
  if (!opt.json_out.empty()) {
    std::ofstream f(opt.json_out);
    if (!f) {
      std::cerr << "cannot write " << opt.json_out << "\n";
      return 2;
    }
    write_json_report(f, opt.explorer, out, naive, naive_wall_ms, other,
                      other_wall_ms);
  }
  return out.result.violations.empty() ? 0 : 1;
} catch (const dqme::CheckError& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
