// dqme_critpath — per-request delay-budget inspector (src/obs/critpath).
//
// Runs the Table-1 ping-pong scenario (two drivers on a 3x3 grid, constant
// delay T, CS duration 2T so every contended handoff is proxy-eligible),
// reconstructs each request's critical path from the recorded causal edge
// stream, and prints the delay budget plus the top-K slowest paths as
// ASCII renders: every tick of a request's wait attributed to wire
// transit, arbiter queue-wait, predecessor CS occupancy, or proxy forward.
//
// Modes:
//   (default)    one algorithm's scenario (--algo, default cao-singhal)
//   --table1     the paper's conformance check: cao-singhal AND maekawa on
//                the identical schedule; every contended Cao–Singhal path
//                must end in exactly ONE wire hop after the holder's exit
//                (1·T) and every Maekawa path in TWO (2·T). Exit 1 on any
//                violation. With --json, writes both budgets plus the
//                expected forms for scripts/validate_critpath.py.
//   --selftest   seeded known-path fixtures (hand-built event streams with
//                known causes) + the --table1 gate; exit 0/1.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "harness/deployment.h"
#include "harness/experiment.h"
#include "net/network.h"
#include "obs/critpath.h"
#include "obs/event_log.h"
#include "sim/simulator.h"

namespace {

using namespace dqme;

constexpr Time kT = 1000;   // constant message delay
constexpr Time kE = 2 * kT; // CS duration; >= T keeps handoffs proxy-eligible

// The span_test ping-pong rig: sites 2 and 7 of a 3x3 grid (overlapping
// arbiters {1, 8}) alternate the CS in a closed loop — the deterministic
// contended schedule behind the paper's Table 1 numbers.
std::vector<obs::Event> run_pingpong(mutex::Algo algo, int rounds) {
  sim::Simulator sim;
  net::Network net(sim, 9, std::make_unique<net::ConstantDelay>(kT), 1);
  obs::EventLog log(net);
  const harness::Deployment dep(algo, 9, "grid", mutex::AlgoOptions{}, net);
  log.attach_all(dep.sites());
  auto drive = [&](SiteId id) {
    mutex::MutexSite* s = &dep.site(id);
    auto remaining = std::make_shared<int>(rounds);
    s->on_enter = [&sim, s, remaining](SiteId, LockId) {
      sim.schedule_after(kE, [s, remaining] {
        s->release_cs(kLock0);
        if (--*remaining > 0) s->request_cs(kLock0);
      });
    };
    s->request_cs(kLock0);
  };
  drive(2);
  drive(7);
  sim.run();
  return log.take("").events;
}

obs::CritStats stats_of(const std::vector<obs::CritPath>& paths) {
  obs::CritStats cs(kT);
  for (const obs::CritPath& p : paths) cs.record(p);
  return cs;
}

// Table-1 gate over one algorithm's extracted paths: every contended path
// must carry exactly `hops` wire hops after the last holder segment, each
// tail exactly hops * T. Prints violations; returns pass/fail.
bool check_table1(const std::string& name,
                  const std::vector<obs::CritPath>& paths, int hops) {
  size_t contended = 0;
  bool ok = true;
  for (const obs::CritPath& p : paths) {
    if (!p.contended) continue;
    ++contended;
    if (p.tail_hops != hops || p.tail_delay != hops * kT) {
      ok = false;
      std::cout << "  FAIL " << name << " span " << obs::format_span(p.span)
                << ": tail " << p.tail_hops << " hops = " << p.tail_delay
                << " ticks (expected " << hops << " hops = " << hops * kT
                << ")\n";
      obs::render_crit_path(std::cout, p, kT);
    }
  }
  if (contended == 0) {
    std::cout << "  FAIL " << name << ": no contended paths extracted\n";
    return false;
  }
  std::cout << "  " << name << ": " << contended
            << " contended paths, every tail " << hops << " wire hop"
            << (hops == 1 ? "" : "s") << " = " << hops << "*T"
            << (ok ? "  [ok]" : "  [FAIL]") << "\n";
  return ok;
}

int run_table1(bool json, const std::string& json_path, int rounds) {
  std::cout << "Table-1 conformance — identical ping-pong schedule "
               "(3x3 grid, T=1000, E=2T):\n";
  const auto cao_paths = obs::extract_critical_paths(
      run_pingpong(mutex::Algo::kCaoSinghal, rounds));
  const auto mae_paths = obs::extract_critical_paths(
      run_pingpong(mutex::Algo::kMaekawa, rounds));
  bool ok = check_table1("cao-singhal", cao_paths, 1);
  ok = check_table1("maekawa", mae_paths, 2) && ok;
  const obs::CritStats cao_cs = stats_of(cao_paths);
  const obs::CritStats mae_cs = stats_of(mae_paths);
  ok = ok && cao_cs.residual_ticks() == 0 && mae_cs.residual_ticks() == 0;
  if (json) {
    std::ostream* os = &std::cout;
    std::ofstream f;
    if (!json_path.empty()) {
      f.open(json_path);
      if (!f) {
        std::cerr << "cannot write " << json_path << "\n";
        return 2;
      }
      os = &f;
    }
    *os << "{\n  \"suite\": \"dqme_critpath_table1\",\n  \"ok\": "
        << (ok ? "true" : "false") << ",\n  \"mean_delay\": " << kT
        << ",\n  \"algos\": {\n"
        << "    \"cao-singhal\": {\"expected_tail_hops\": 1, "
           "\"expected_tail_t\": 1, \"critpath\": ";
    cao_cs.write_json(*os);
    *os << "},\n    \"maekawa\": {\"expected_tail_hops\": 2, "
           "\"expected_tail_t\": 2, \"critpath\": ";
    mae_cs.write_json(*os);
    *os << "}\n  }\n}\n";
    if (!json_path.empty())
      std::cout << "  [json] wrote " << json_path << "\n";
  }
  std::cout << (ok ? "TABLE-1 GATE: pass\n" : "TABLE-1 GATE: FAIL\n");
  return ok ? 0 : 1;
}

// --selftest: hand-built event logs where the correct path is known by
// construction, then the live Table-1 gate on both algorithms.
int run_selftest() {
  using obs::CritBucket;
  using obs::Event;
  using obs::EventKind;
  int failures = 0;
  auto expect = [&](bool cond, const std::string& what) {
    if (!cond) {
      ++failures;
      std::cout << "  FAIL: " << what << "\n";
    }
  };
  const SpanId h = span_of(ReqId{1, 7});
  const SpanId a = span_of(ReqId{1, 2});
  // Fixture records: a span edge at one site, and a delivery of `m` from
  // src to dst for `span`, sent at `sent` and delivered at `at`. A reply
  // is a grant when src is its arbiter (1) and a proxy grant otherwise.
  auto edge = [](Time at, EventKind kind, SpanId span, SiteId site,
                 net::CauseId cause) {
    return Event::edge(kind, site, kLock0, span, at, cause);
  };
  auto wire = [](Time at, Time sent, net::Message m, SpanId span, SiteId src,
                 SiteId dst, net::CauseId cause) {
    m.span = span;
    m.sent_at = sent;
    m.src = src;
    m.dst = dst;
    return Event::delivery(m, kLock0, at, cause);
  };
  const net::Message request = net::make_request(ReqId{});
  const net::Message reply = net::make_reply(1, ReqId{});  // arbiter 1's
  const net::Message release = net::make_release(ReqId{}, ReqId{});

  {
    // Fixture 1 — §3 proxy handoff, requester issued during the holder's
    // tenure: [holder][proxy], tail 1 hop = 1T.
    std::vector<Event> ev{
        edge(0, EventKind::kIssue, h, 7, -1),
        edge(0, EventKind::kEnter, h, 7, 0),
        edge(100, EventKind::kIssue, a, 2, -1),
        wire(1100, 100, request, a, 2, 1, 2),
        edge(2000, EventKind::kExit, h, 7, -1),
        wire(3000, 2000, reply, a, 7, 2, 4),
        edge(3000, EventKind::kEnter, a, 2, 5),
    };
    const auto paths = obs::extract_critical_paths(ev);
    expect(paths.size() == 2, "fixture1: two paths (holder + requester)");
    const obs::CritPath& p = paths.back();
    expect(p.span == a && p.contended, "fixture1: requester path contended");
    expect(p.tail_hops == 1 && p.tail_delay == kT,
           "fixture1: tail is one proxy hop = 1T");
    expect(p.in_bucket(CritBucket::kHolder) == 1900 &&
               p.in_bucket(CritBucket::kProxy) == 1000,
           "fixture1: budget = 1900 holder + 1000 proxy");
    expect(p.waiting() == 2900 &&
               p.in_bucket(CritBucket::kHolder) +
                       p.in_bucket(CritBucket::kProxy) ==
                   p.waiting(),
           "fixture1: conservation");
  }
  {
    // Fixture 2 — Maekawa relay: exit -> release -> arbiter -> grant,
    // tail 2 wire hops = 2T.
    std::vector<Event> ev{
        edge(0, EventKind::kIssue, h, 7, -1),
        edge(0, EventKind::kEnter, h, 7, 0),
        edge(100, EventKind::kIssue, a, 2, -1),
        wire(1100, 100, request, a, 2, 1, 2),
        edge(2000, EventKind::kExit, h, 7, -1),
        wire(3000, 2000, release, h, 7, 1, 4),
        wire(4000, 3000, reply, a, 1, 2, 5),
        edge(4000, EventKind::kEnter, a, 2, 6),
    };
    const auto paths = obs::extract_critical_paths(ev);
    expect(paths.size() == 2, "fixture2: two paths");
    const obs::CritPath& p = paths.back();
    expect(p.contended && p.tail_hops == 2 && p.tail_delay == 2 * kT,
           "fixture2: tail is two wire hops = 2T");
    expect(p.in_bucket(CritBucket::kWire) == 2000 &&
               p.in_bucket(CritBucket::kHolder) == 1900,
           "fixture2: budget = 2000 wire + 1900 holder");
    expect(p.waiting() == 3900, "fixture2: waiting = 3900");
  }
  {
    // Fixture 3 — requester issued BEFORE the holder entered: the budget
    // below the holder segment is the request's own wire hop plus the
    // arbiter queue-wait. [wire][queue][holder][proxy].
    std::vector<Event> ev{
        edge(0, EventKind::kIssue, a, 2, -1),
        wire(1000, 0, request, a, 2, 1, 0),
        edge(500, EventKind::kIssue, h, 7, -1),
        edge(1500, EventKind::kEnter, h, 7, -1),
        edge(2500, EventKind::kExit, h, 7, -1),
        wire(3500, 2500, reply, a, 7, 2, 4),
        edge(3500, EventKind::kEnter, a, 2, 5),
    };
    const auto paths = obs::extract_critical_paths(ev);
    expect(paths.size() == 2, "fixture3: two paths");
    const obs::CritPath& p = paths.back();
    expect(p.segments.size() == 4, "fixture3: four segments");
    expect(p.in_bucket(CritBucket::kWire) == 1000 &&
               p.in_bucket(CritBucket::kQueue) == 500 &&
               p.in_bucket(CritBucket::kHolder) == 1000 &&
               p.in_bucket(CritBucket::kProxy) == 1000,
           "fixture3: budget = wire 1000 / queue 500 / holder 1000 / "
           "proxy 1000");
    expect(p.waiting() == 3500, "fixture3: conservation");
    expect(p.tail_hops == 1 && p.tail_delay == kT, "fixture3: 1T tail");
  }
  {
    // Fixture 4 — broken chain (cause outside the window): the residue
    // must land in kOther, never vanish.
    std::vector<Event> ev{
        edge(0, EventKind::kIssue, a, 2, -1),
        edge(3000, EventKind::kEnter, a, 2, -1),
    };
    const auto paths = obs::extract_critical_paths(ev);
    expect(paths.size() == 1, "fixture4: one path");
    expect(paths[0].in_bucket(CritBucket::kOther) == 3000 &&
               paths[0].waiting() == 3000,
           "fixture4: unattributable wait lands in kOther");
    expect(!paths[0].contended, "fixture4: not contended");
  }
  std::cout << "  fixtures: " << (failures == 0 ? "pass" : "FAIL") << "\n";
  const int table1 = run_table1(false, "", 6);
  return (failures == 0 && table1 == 0) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dqme;
  mutex::Algo algo = mutex::Algo::kCaoSinghal;
  int rounds = 6;
  size_t top = 3;
  bool json = false, table1 = false, selftest = false;
  std::string json_path;
  flags::Table t(argv[0]);
  harness::add_algo_flag(t, algo);
  t.number("--rounds", "R", "CS rounds per driver (default 6)", rounds, 1)
      .number("--top", "K", "slowest paths to render (default 3)", top)
      .optional("--json", "PATH",
                "write the budget as JSON (to stdout without\nPATH)", json,
                json_path)
      .flag("--table1", "Table-1 gate: cao-singhal 1*T tails vs\n"
                        "maekawa 2*T on one schedule",
            table1)
      .flag("--selftest", "seeded known-path fixtures + the --table1 gate",
            selftest);
  t.parse_or_exit(argc, argv);
  if (selftest) return run_selftest();
  if (table1) return run_table1(json, json_path, rounds);

  auto paths = obs::extract_critical_paths(run_pingpong(algo, rounds));
  const obs::CritStats cs = stats_of(paths);

  if (json) {
    std::ostream* os = &std::cout;
    std::ofstream f;
    if (!json_path.empty()) {
      f.open(json_path);
      if (!f) {
        std::cerr << "cannot write " << json_path << "\n";
        return 2;
      }
      os = &f;
    }
    *os << "{\n  \"suite\": \"dqme_critpath\",\n  \"algo\": \""
        << mutex::to_string(algo) << "\",\n  \"critpath\": ";
    cs.write_json(*os);
    *os << "\n}\n";
    if (!json_path.empty()) std::cout << "[json] wrote " << json_path << "\n";
    return 0;
  }

  std::cout << "Critical-path delay budget — " << mutex::to_string(algo)
            << ", ping-pong sites 2 & 7 on a 3x3 grid, T=" << kT
            << ", E=2T, " << rounds << " rounds\n\n"
            << "  paths " << cs.paths() << " (" << cs.contended()
            << " contended), conservation residual " << cs.residual_ticks()
            << " ticks\n";
  const double w = static_cast<double>(cs.waiting_ticks());
  if (w > 0) {
    std::cout << "  budget:";
    for (size_t b = 0; b < obs::kNumCritBuckets; ++b) {
      const auto bucket = static_cast<obs::CritBucket>(b);
      char buf[64];
      std::snprintf(buf, sizeof buf, "  %s %.1f%%",
                    std::string(obs::to_string(bucket)).c_str(),
                    100.0 * static_cast<double>(cs.ticks(bucket)) / w);
      std::cout << buf;
    }
    std::cout << "\n  mean contended tail: " << cs.mean_tail_in_t()
              << " T\n";
  }

  std::sort(paths.begin(), paths.end(),
            [](const obs::CritPath& x, const obs::CritPath& y) {
              return x.waiting() != y.waiting() ? x.waiting() > y.waiting()
                                                : x.entered < y.entered;
            });
  if (top > paths.size()) top = paths.size();
  std::cout << "\ntop " << top << " slowest paths:\n";
  for (size_t i = 0; i < top; ++i) {
    obs::render_crit_path(std::cout, paths[i], kT);
    std::cout << "\n";
  }
  return 0;
}
