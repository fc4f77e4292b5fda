// dqme_trace — print the full message timeline of a small scenario.
//
// Runs a handful of sites under brief contention and dumps every control
// message with its delivery time: the fastest way to *see* the paper's
// §3 mechanism (request -> transfer -> forwarded reply -> parameterized
// release) in action. Every message line now carries the causal span
// ("site:seq") of the request it works toward; --span narrows the timeline
// to one request's story, and --json exports the same run as Chrome
// trace-event JSON for chrome://tracing / ui.perfetto.dev.
//
// Multi-lock service runs: --locks=M shards the scenario over M independent
// locks (the x3 lock-service shape, shrunk to readable size); every line
// then carries its LockId, and --lock=ID slices the timeline — text or
// Chrome JSON — down to one lock's story.
//
// --timeline=FILE is a render mode, no simulation: it reads the windowed
// timeline JSON a bench emits under its "timeline" key (or a raw
// obs::Timeline::write_json file) and prints each series as an ASCII
// sparkline with markers. The timeline writer pins one series per line for
// exactly this consumer — no JSON library here.
//
// --crit highlights one request's causal critical path (the slowest, or
// --span's): its delay budget renders as ASCII, and the Chrome export tags
// the path's wire hops — slices and flow arrows — with "crit": 1, which
// scripts/validate_trace.py --crit checks forms a single time-ordered
// chain.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "harness/deployment.h"
#include "harness/workload.h"
#include "net/network.h"
#include "net/trace.h"
#include "obs/chrome_trace.h"
#include "obs/critpath.h"

namespace {

// ---- --timeline render mode -------------------------------------------
// Line-oriented scan of obs::Timeline::write_json output: the writer emits
// one series per line, so the JSON field scanners and a strtod pass recover
// every array without a JSON parser. Works on a raw timeline file or a bench --json file (the
// timeline object sits under the "timeline" key; the registry object is a
// single unrelated line and never matches the "origin" anchor first).

// First quoted string on the line (series/marker names never contain
// escapes — Timeline::write_json escapes only `"` and `\`, and every name
// this repo emits is plain).
std::string first_quoted(const std::string& line) {
  const auto b = line.find('"');
  if (b == std::string::npos) return {};
  const auto e = line.find('"', b + 1);
  if (e == std::string::npos) return {};
  return line.substr(b + 1, e - b - 1);
}

// Numbers of the first [...] on the line.
std::vector<double> parse_array(const std::string& line) {
  std::vector<double> v;
  auto pos = line.find('[');
  if (pos == std::string::npos) return v;
  const char* p = line.c_str() + pos + 1;
  while (*p != '\0' && *p != ']') {
    char* end = nullptr;
    const double x = std::strtod(p, &end);
    if (end == p) break;
    v.push_back(x);
    p = end;
    while (*p == ',' || *p == ' ') ++p;
  }
  return v;
}

std::string sparkline(const std::vector<double>& v) {
  static const char kLevels[] = " .:-=+*#%@";
  double mx = 0;
  for (double x : v) mx = std::max(mx, x);
  std::string s;
  for (double x : v) {
    const int i =
        mx > 0 ? static_cast<int>(x / mx * 9.0 + 0.5) : 0;  // 0..9
    s += kLevels[std::clamp(i, 0, 9)];
  }
  return s;
}

void render_series(const std::string& label, const std::vector<double>& v,
                   size_t width) {
  double mx = 0;
  for (double x : v) mx = std::max(mx, x);
  std::cout << "  " << label << std::string(width - label.size(), ' ')
            << " |" << sparkline(v) << "|  max " << mx << "\n";
}

int render_timeline(const std::string& path) {
  using dqme::Time;
  std::ifstream f(path);
  if (!f) {
    std::cerr << "dqme_trace: cannot read " << path << "\n";
    return 2;
  }
  std::vector<std::string> lines;
  for (std::string line; std::getline(f, line);) lines.push_back(line);

  // Anchor on the timeline header line (raw file or bench "timeline" key).
  size_t start = lines.size();
  for (size_t i = 0; i < lines.size(); ++i)
    if (lines[i].find("\"origin\":") != std::string::npos) {
      start = i;
      break;
    }
  if (start == lines.size()) {
    std::cerr << "dqme_trace: no timeline in " << path
              << " (missing \"origin\" key — was the bench run with a "
                 "timeline_window?)\n";
    return 1;
  }
  long origin = 0, window = 0, windows = 0;
  dqme::json_field_num(lines[start], "origin", origin);
  dqme::json_field_num(lines[start], "window", window);
  dqme::json_field_num(lines[start], "windows", windows);
  std::cout << "timeline: origin=" << origin << " window=" << window
            << " windows=" << windows << "  (" << path << ")\n";

  // Collect (section-qualified label, values) pairs, then markers.
  struct Series {
    std::string label;
    std::vector<double> vals;
  };
  std::vector<Series> series;
  struct Marker {
    Time at;
    std::string label;
  };
  std::vector<Marker> markers;
  enum class Sec { kNone, kCounters, kGauges, kSketches } sec = Sec::kNone;
  std::string sketch;  // current sketch name inside the sketches section
  for (size_t i = start; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.find("\"counters\": {") != std::string::npos) {
      sec = Sec::kCounters;
      continue;
    }
    if (line.find("\"gauges\": {") != std::string::npos) {
      sec = Sec::kGauges;
      continue;
    }
    if (line.find("\"sketches\": {") != std::string::npos) {
      sec = Sec::kSketches;
      continue;
    }
    if (line.find("\"markers\": [") != std::string::npos) {
      // Single line of {"at": T, "label": "..."} objects.
      for (auto pos = line.find('{'); pos != std::string::npos;
           pos = line.find('{', pos + 1)) {
        const auto end = line.find('}', pos);
        if (end == std::string::npos) break;
        const std::string obj = line.substr(pos, end - pos + 1);
        const auto lab = obj.find("\"label\":");
        if (lab == std::string::npos) continue;
        long at = 0;
        dqme::json_field_num(obj, "at", at);
        markers.push_back({at, first_quoted(obj.substr(lab + 8))});
        pos = end;
      }
      break;  // markers close the timeline object
    }
    const auto first_char = line.find_first_not_of(' ');
    if (first_char == std::string::npos || line[first_char] != '"') continue;
    const std::string name = first_quoted(line);
    if (name.empty()) continue;
    switch (sec) {
      case Sec::kCounters:
      case Sec::kGauges:
        series.push_back({name, parse_array(line)});
        break;
      case Sec::kSketches:
        if (line.find(": {") != std::string::npos) {
          sketch = name;  // header line: "waiting": {"lo": .., ..
        } else if (name != "lo" && name != "buckets") {
          series.push_back({sketch + "." + name, parse_array(line)});
        }
        break;
      case Sec::kNone:
        break;
    }
  }

  size_t width = 0;
  for (const Series& s : series) width = std::max(width, s.label.size());
  std::cout << "\n";
  for (const Series& s : series) render_series(s.label, s.vals, width);
  if (!markers.empty()) {
    std::cout << "\nmarkers:\n";
    for (const Marker& m : markers) {
      const size_t w =
          window > 0 && m.at > origin
              ? static_cast<size_t>((m.at - origin) / window)
              : 0;
      std::cout << "  w" << w << "  @" << m.at << "  " << m.label << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dqme;

  int n = 4;
  uint64_t num_cs = 6;
  uint64_t seed = 1;
  bool json = false;
  std::string json_path;  // empty = stdout
  SpanId only_span = kNoSpan;
  LockId only_lock = kNoLock;
  LockId num_locks = 1;
  bool crit = false;
  std::string timeline_path;
  flags::Table t(argv[0], "[N] [NUM_CS] [SEED] [options]");
  t.value("--span", "SITE:SEQ", "show only this request's messages",
          [&only_span](const std::string& v) {
            only_span = obs::parse_span(v);
            if (only_span == kNoSpan)
              throw flags::UsageError("bad span '" + v +
                                      "' (expected SITE:SEQ or a packed id)");
          })
      .number("--lock", "ID", "show only this lock's messages", only_lock,
              LockId{0})
      .number("--locks", "M", "shard the scenario over M locks (default 1)",
              num_locks, LockId{1})
      .flag("--crit", "render the slowest (or --span's) critical path",
            crit)
      .optional("--json", "PATH",
                "export a Chrome trace (to stdout without PATH)", json,
                json_path)
      .text("--timeline", "FILE",
            "render a bench/timeline JSON as sparklines\n"
            "(no simulation)",
            timeline_path)
      .epilog("N sites (default 4, at least 2), NUM_CS critical sections\n"
              "(default 6, at least 1), SEED (default 1)\n");
  // The positionals come back as leftovers, parsed as strictly as flags.
  const std::vector<std::string> pos = t.parse_or_exit(argc, argv, true);
  try {
    for (size_t i = 0; i < pos.size(); ++i)
      if (i > 2 || pos[i].rfind("--", 0) == 0)
        throw flags::UsageError(flags::unknown_argument(pos[i]));
    if (pos.size() > 0) n = flags::parse_number<int>(pos[0], "N", 2);
    if (pos.size() > 1)
      num_cs = flags::parse_number<uint64_t>(pos[1], "NUM_CS", 1);
    if (pos.size() > 2) seed = flags::parse_number<uint64_t>(pos[2], "SEED");
  } catch (const flags::UsageError& e) {
    t.fail(e.what());
  }
  if (!timeline_path.empty()) return render_timeline(timeline_path);
  if (only_lock != kNoLock && only_lock >= num_locks)
    t.fail("--lock=" + std::to_string(only_lock) + " out of range (run has " +
           std::to_string(num_locks) + " lock" + (num_locks == 1 ? "" : "s") +
           "; raise --locks)");

  sim::Simulator sim;
  net::Network net(sim, n, std::make_unique<net::ConstantDelay>(1000), seed);
  net::TraceRecorder trace(net);
  obs::SpanRecorder spans(net);
  mutex::AlgoOptions opts;
  opts.num_locks = num_locks;
  const harness::Deployment dep(mutex::Algo::kCaoSinghal, n, "grid", opts,
                                net);
  spans.attach_all(dep.sites());

  // Annotate CS entries/exits inline with the message flow.
  struct Annotation {
    Time at;
    LockId lock;
    std::string what;
  };
  std::vector<Annotation> marks;

  harness::Workload::Config wc;
  wc.mode = harness::Workload::Config::Mode::kClosed;
  wc.cs_duration = 300;
  wc.max_cs_per_site = (num_cs + static_cast<uint64_t>(n) - 1) /
                       static_cast<uint64_t>(n);
  wc.seed = seed;
  wc.num_locks = num_locks;
  harness::Workload wl(sim, dep.sites(), wc, nullptr);
  for (mutex::MutexSite* s : dep.sites()) {
    auto inner = s->on_enter;
    s->on_enter = [&, inner, s](SiteId id, LockId lock) {
      std::string what =
          "site " + std::to_string(id) + " ENTERS the critical section";
      if (num_locks > 1) what += " [lock " + std::to_string(lock) + "]";
      what += " [span " + obs::format_span(s->active_span(lock)) + "]";
      marks.push_back({sim.now(), lock, std::move(what)});
      inner(id, lock);
    };
  }
  wl.start();
  sim.run();

  // --crit: pick the request to highlight — --span's path when given, the
  // slowest otherwise — render its delay budget, and collect the wire-hop
  // event indices the Chrome export tags with "crit": 1.
  std::vector<int32_t> crit_events;
  if (crit) {
    const auto paths = obs::extract_critical_paths(spans.events());
    const obs::CritPath* pick = nullptr;
    for (const obs::CritPath& p : paths) {
      if (only_span != kNoSpan && p.span != only_span) continue;
      if (only_lock != kNoLock && p.lock != only_lock) continue;
      if (!pick || p.waiting() > pick->waiting()) pick = &p;
    }
    if (!pick) {
      std::cerr << "dqme_trace: --crit found no completed request"
                << (only_span != kNoSpan ? " matching --span" : "") << "\n";
      return 1;
    }
    // Keep stdout clean when the Chrome JSON itself goes there.
    std::ostream& ro = json && json_path.empty() ? std::cerr : std::cout;
    ro << "critical path ("
       << (only_span != kNoSpan ? "requested span" : "slowest request")
       << "):\n";
    obs::render_crit_path(ro, *pick, 1000);
    for (const obs::CritSegment& s : pick->segments)
      if (s.event >= 0 && (s.bucket == obs::CritBucket::kWire ||
                           s.bucket == obs::CritBucket::kProxy))
        crit_events.push_back(s.event);
  }

  if (json) {
    obs::ChromeTraceData data;
    data.n_sites = n;
    data.label = "dqme_trace cao-singhal N=" + std::to_string(n) +
                 " seed=" + std::to_string(seed);
    data.messages = trace.events();
    data.span_events = spans.events();
    data.only_span = only_span;
    data.only_lock = only_lock;
    data.crit_events = crit_events;
    if (json_path.empty()) {
      obs::write_chrome_trace(std::cout, data);
    } else {
      std::ofstream f(json_path);
      if (!f) {
        std::cerr << "cannot write " << json_path << "\n";
        return 2;
      }
      obs::write_chrome_trace(f, data);
      std::cout << "[trace] wrote " << json_path << " ("
                << data.messages.size() << " messages, "
                << data.span_events.size() << " span events)\n";
    }
    return 0;
  }

  std::cout << "Message timeline — cao-singhal, N=" << n
            << ", grid quorums, T=1000 (constant)\n"
            << "q(i) = quorum of site i:\n";
  for (SiteId i = 0; i < n; ++i) {
    std::cout << "  q(" << i << ") = { ";
    for (SiteId s : dep.quorums()->quorum_for(i))
      std::cout << s << ' ';
    std::cout << "}\n";
  }
  if (num_locks > 1)
    std::cout << "(" << num_locks << " independent locks, LockId tagged "
              << "per line)\n";
  if (only_span != kNoSpan)
    std::cout << "(showing only span " << obs::format_span(only_span)
              << ")\n";
  if (only_lock != kNoLock)
    std::cout << "(showing only lock " << only_lock << ")\n";
  std::cout << '\n';

  size_t shown = 0;
  size_t next_mark = 0;
  const auto keep_mark = [&](const Annotation& m) {
    return only_lock == kNoLock || m.lock == only_lock;
  };
  for (const net::TraceEvent& e : trace.events()) {
    while (next_mark < marks.size() && marks[next_mark].at <= e.at) {
      if (keep_mark(marks[next_mark]))
        std::cout << "           >>> " << marks[next_mark].what << '\n';
      ++next_mark;
    }
    if (only_span != kNoSpan && e.msg.span != only_span) continue;
    if (only_lock != kNoLock && e.lock != only_lock) continue;
    std::cout.width(10);
    std::cout << e.at << "  " << e.msg;
    if (num_locks > 1) std::cout << "  [lock " << e.lock << "]";
    std::cout << "  [span " << obs::format_span(e.msg.span) << "]\n";
    ++shown;
  }
  while (next_mark < marks.size()) {
    if (keep_mark(marks[next_mark]))
      std::cout << "           >>> " << marks[next_mark].what << '\n';
    ++next_mark;
  }
  std::cout << "\n" << marks.size() << " CS executions, " << shown
            << " control messages shown (" << trace.events().size()
            << " recorded).\n";
  return 0;
}
