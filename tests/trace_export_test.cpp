// Chrome trace exporter tests: the emitted JSON must be syntactically
// valid, every CS "B" must have its matching "E" on the same lane, the
// paper's proxy-forwarded reply must appear as a distinct flow arrow, and
// the whole export must be byte-stable (golden files — regenerate with
// DQME_REGEN_GOLDEN=1 after an intentional format change). The explorer's
// lost-transfer counterexample pins the flight-recorder dump too.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/network.h"
#include "mutex/factory.h"
#include "obs/chrome_trace.h"
#include "obs/event_log.h"
#include "obs/span.h"
#include "quorum/factory.h"
#include "sim/simulator.h"
#include "verify/explorer.h"

namespace dqme::obs {
namespace {

// --- a minimal JSON syntax checker (no external deps) -----------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default:  return number();
    }
  }
  bool object() {
    ++pos_;  // {
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // [
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    for (++pos_; pos_ < s_.size(); ++pos_) {
      if (s_[pos_] == '\\') { ++pos_; continue; }
      if (s_[pos_] == '"') { ++pos_; return true; }
    }
    return false;
  }
  bool number() {
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const size_t len = std::string(lit).size();
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// Pulls `"key": value` out of a single-line event record (the writer emits
// one event per line, so line-local extraction is exact).
std::string field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const auto at = line.find(needle);
  if (at == std::string::npos) return "";
  size_t from = at + needle.size();
  size_t to = from;
  if (line[from] == '"') {
    to = line.find('"', from + 1);
    return line.substr(from + 1, to - from - 1);
  }
  while (to < line.size() && line[to] != ',' && line[to] != '}') ++to;
  return line.substr(from, to - from);
}

// The tiniest contended Cao–Singhal scenario: 3 sites, overlapping grid
// quorums, two sites ping-ponging the CS so the exiting holder forwards
// replies (the proxy arrow the viewer — and this test — looks for).
std::string render_tiny_trace() {
  sim::Simulator sim;
  net::Network net(sim, 3, std::make_unique<net::ConstantDelay>(1000), 1);
  EventLog log(net);
  auto quorums = quorum::make_quorum_system("grid", 3);
  std::vector<std::unique_ptr<mutex::MutexSite>> sites;
  for (SiteId i = 0; i < 3; ++i) {
    sites.push_back(mutex::make_site(mutex::Algo::kCaoSinghal, i, net,
                                     quorums.get(), mutex::AlgoOptions{}));
    net.attach(i, sites.back().get());
    log.attach(*sites.back());
  }
  for (SiteId id : {SiteId{0}, SiteId{2}}) {
    auto* s = sites[static_cast<size_t>(id)].get();
    auto remaining = std::make_shared<int>(3);
    s->on_enter = [&sim, s, remaining](SiteId, LockId) {
      sim.schedule_after(100, [s, remaining] {
        s->release_cs(kLock0);
        if (--*remaining > 0) s->request_cs(kLock0);
      });
    };
    s->request_cs(kLock0);
  }
  sim.run();

  std::ostringstream os;
  write_chrome_trace(os, log.take("trace_export_test cao-singhal N=3"));
  return os.str();
}

std::vector<std::string> event_lines(const std::string& json) {
  std::vector<std::string> out;
  std::istringstream is(json);
  std::string line;
  while (std::getline(is, line))
    if (line.find("\"ph\": ") != std::string::npos) out.push_back(line);
  return out;
}

TEST(ChromeTrace, EmitsSyntacticallyValidJson) {
  const std::string json = render_tiny_trace();
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
}

TEST(ChromeTrace, EveryLaneIsNamedAndEveryBeginHasItsEnd) {
  const std::string json = render_tiny_trace();
  const auto lines = event_lines(json);
  ASSERT_FALSE(lines.empty());
  int lanes = 0;
  // Per-lane stack depth of B/E slice events; 'E' must never underflow and
  // every lane must end balanced (the exporter drops unclosed opens).
  std::map<std::string, int> depth;
  for (const std::string& l : lines) {
    const std::string ph = field(l, "ph");
    if (ph == "M" && field(l, "name") == "thread_name") ++lanes;
    if (ph == "B") ++depth[field(l, "tid")];
    if (ph == "E") {
      --depth[field(l, "tid")];
      EXPECT_GE(depth[field(l, "tid")], 0) << "E without B: " << l;
    }
  }
  EXPECT_EQ(lanes, 3);
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "unclosed B on lane "
                                                     << tid;
}

TEST(ChromeTrace, ProxyReplyAppearsAsADistinctFlowArrow) {
  const std::string json = render_tiny_trace();
  const auto lines = event_lines(json);
  int proxy_start = 0, proxy_finish = 0, proxy_slices = 0;
  for (const std::string& l : lines) {
    if (field(l, "cat") != "proxy") continue;
    EXPECT_EQ(field(l, "name"), "reply (proxy)");
    const std::string ph = field(l, "ph");
    if (ph == "s") ++proxy_start;
    if (ph == "f") ++proxy_finish;
    if (ph == "X") ++proxy_slices;
  }
  // The ping-pong produces at least one proxied handoff; each renders as
  // two slices plus a paired s/f arrow.
  EXPECT_GT(proxy_start, 0);
  EXPECT_EQ(proxy_start, proxy_finish);
  EXPECT_EQ(proxy_slices, 2 * proxy_start);
}

TEST(ChromeTrace, AcquireSpansPairUpByPhase) {
  const std::string json = render_tiny_trace();
  int b = 0, e = 0;
  for (const std::string& l : event_lines(json)) {
    const std::string ph = field(l, "ph");
    if (ph == "b") ++b;
    if (ph == "e") ++e;
  }
  EXPECT_GT(b, 0);
  EXPECT_EQ(b, e);
}

TEST(ChromeTrace, SpanFilterKeepsOnlyThatSpansEvents) {
  // Re-render with only_span set to the first handoff's span: every
  // span-tagged event left must carry it.
  sim::Simulator sim;
  net::Network net(sim, 3, std::make_unique<net::ConstantDelay>(1000), 1);
  EventLog log(net);
  auto quorums = quorum::make_quorum_system("grid", 3);
  std::vector<std::unique_ptr<mutex::MutexSite>> sites;
  for (SiteId i = 0; i < 3; ++i) {
    sites.push_back(mutex::make_site(mutex::Algo::kCaoSinghal, i, net,
                                     quorums.get(), mutex::AlgoOptions{}));
    net.attach(i, sites.back().get());
    log.attach(*sites.back());
  }
  sites[0]->on_enter = [&](SiteId, LockId) {
    sim.schedule_after(100, [&] { sites[0]->release_cs(kLock0); });
  };
  sites[0]->request_cs(kLock0);
  sim.run();
  ASSERT_FALSE(log.events().empty());
  const SpanId target = log.events().front().span;
  ASSERT_NE(target, kNoSpan);

  ChromeTraceView view;
  view.only_span = target;
  std::ostringstream os;
  write_chrome_trace(os, log.recording(), view);
  const std::string expect_arg = "\"span\": \"" + format_span(target) + "\"";
  for (const std::string& l : event_lines(os.str())) {
    if (field(l, "ph") == "M") continue;  // lane metadata is unfiltered
    if (l.find("\"args\"") == std::string::npos) continue;
    EXPECT_NE(l.find(expect_arg), std::string::npos) << l;
  }
}

// Critical-path hops are tagged by their index in the recording. Two
// messages of one piggybacked flight share every coordinate (sender,
// receiver, send and delivery instants, lock); only the one the path walked
// carries "crit": 1.
TEST(ChromeTrace, CritTagFollowsTheRecordedHopNotItsFlightMate) {
  net::Message reply = net::make_reply(2, ReqId{1, 3});
  net::Message release = net::make_release(ReqId{1, 2}, ReqId{});
  for (net::Message* m : {&reply, &release}) {
    m->src = 2;
    m->dst = 3;
    m->sent_at = 5945;
  }
  Recording run;
  run.n_sites = 4;
  run.events = {Event::delivery(reply, kLock0, 6945),
                Event::delivery(release, kLock0, 6945)};
  ChromeTraceView view;
  view.crit_events = {1};
  std::ostringstream os;
  write_chrome_trace(os, run, view);
  int tagged = 0;
  for (const std::string& l : event_lines(os.str())) {
    if (l.find("\"crit\": 1") == std::string::npos) continue;
    ++tagged;
    EXPECT_EQ(field(l, "name"), "release") << l;
  }
  EXPECT_EQ(tagged, 4);  // both slices and both arrow endpoints
}

// Compares `text` with tests/golden/`name` (or rewrites the file under
// DQME_REGEN_GOLDEN=1).
void expect_golden(const std::string& text, const std::string& name) {
  const std::string path =
      std::string(DQME_SOURCE_DIR) + "/tests/golden/" + name;
  if (std::getenv("DQME_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << text;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — run with DQME_REGEN_GOLDEN=1 to create it";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(text, buf.str())
      << name << " drifted from its golden file; if intentional, "
                 "regenerate with DQME_REGEN_GOLDEN=1";
}

TEST(ChromeTrace, MatchesGoldenFile) {
  expect_golden(render_tiny_trace(), "trace_3site.json");
}

// `dqme_explore --mutate lost-transfer --trace-out ... --flightrec-out ...`
// in-process: find and minimize the counterexample, replay it with capture
// on, and pin both exports byte for byte — the Chrome trace of the whole
// replay and the flight recorder's black box ending in the violation.
TEST(ChromeTrace, LostTransferCounterexampleMatchesGoldens) {
  verify::ExplorerConfig cfg;
  cfg.dpor = verify::Dpor::kSource;
  cfg.world.mutation = verify::Mutation::kLostTransfer;
  const verify::ExploreResult r = verify::Explorer(cfg).run();
  ASSERT_FALSE(r.violations.empty());
  const std::vector<verify::Action>& schedule = r.violations.front().schedule;
  EXPECT_EQ(schedule.size(), 37u);
  const auto world = verify::replay_schedule(cfg.world, schedule, true);

  Recording run = world->event_log()->recording();
  run.label = "dqme_explore counterexample (cao-singhal)";
  std::ostringstream trace;
  write_chrome_trace(trace, run);
  expect_golden(trace.str(), "lost_transfer_trace.json");

  std::ostringstream dump;
  world->flight_recorder()->dump(dump);
  expect_golden(dump.str(), "lost_transfer_flightrec.json");
}

}  // namespace
}  // namespace dqme::obs
