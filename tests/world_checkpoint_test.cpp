// Checkpoint fidelity of verify::World::copy_state_from, the state copy the
// explorer's backtracking restores from. A World restored from a twin must
// be indistinguishable from a fresh replay of the same prefix — for every
// protocol, through crashes and seeded mutations — and must keep behaving
// identically when both run on. A field some layer forgets to copy shows
// up as a divergence in the observed text or in how the two runs continue.
// The explorer's counters are pinned too: checkpointing changes how the
// search backtracks, never what it explores.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/cao_singhal.h"
#include "mutex/maekawa.h"
#include "mutex/raymond.h"
#include "mutex/roucairol_carvalho.h"
#include "mutex/suzuki_kasami.h"
#include "verify/explorer.h"

namespace dqme::verify {
namespace {

WorldConfig base_config(mutex::Algo algo = mutex::Algo::kCaoSinghal) {
  WorldConfig cfg;
  cfg.algo = algo;
  cfg.n = 3;
  cfg.quorum = "grid";
  cfg.cs_per_site = 2;
  return cfg;
}

struct Case {
  std::string name;
  WorldConfig cfg;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  for (mutex::Algo algo : mutex::all_algos())
    out.push_back({std::string(mutex::to_string(algo)), base_config(algo)});
  for (SiteId victim = 0; victim < 3; ++victim) {
    WorldConfig cfg = base_config();
    cfg.fault_tolerant = true;
    cfg.crash_sites = {victim};
    cfg.max_crashes = 1;
    out.push_back({"crash_site_" + std::to_string(victim), cfg});
  }
  {  // two crashes leave no quorum: the survivor aborts (§6)
    WorldConfig cfg = base_config();
    cfg.fault_tolerant = true;
    cfg.crash_sites = {1, 2};
    cfg.max_crashes = 2;
    out.push_back({"two_crashes", cfg});
  }
  for (Mutation m : {Mutation::kDoubleGrant, Mutation::kLostTransfer,
                     Mutation::kFifoInversion, Mutation::kDeadlockOrdering}) {
    WorldConfig cfg = base_config();
    cfg.mutation = m;
    out.push_back({std::string(to_string(m)), cfg});
  }
  for (Case& c : out)
    for (char& ch : c.name)
      if (ch == '-') ch = '_';
  return out;
}

// Everything a World exposes, layer by layer, as text: a mismatch prints
// the diverging field.
std::string observe(const World& w) {
  std::ostringstream os;
  std::vector<Action> enabled;
  w.enabled(enabled);
  os << "world now=" << w.now() << " enabled=" << encode_actions(enabled)
     << " quiescent=" << w.quiescent() << " crashes=" << w.crashes_done()
     << " sealed=" << w.sealed() << "\n";

  const sim::Simulator& sim = w.network().simulator();
  os << "sim executed=" << sim.events_executed()
     << " scheduled=" << sim.scheduled_total()
     << " cancelled=" << sim.cancelled_total()
     << " peak_heap=" << sim.peak_heap() << "\n";

  const net::Network& net = w.network();
  const net::NetworkStats& s = net.stats();
  os << "net wire=" << s.wire_messages << " control=" << s.control_messages
     << " dropped=" << s.dropped_at_crashed
     << " local=" << s.local_deliveries
     << " delivered=" << s.delivered_messages
     << " flights=" << s.flights_acquired
     << " payloads=" << s.payloads_acquired
     << " piggybacked=" << s.piggybacked_messages << " by_type=";
  for (uint64_t c : s.by_type) os << c << ',';
  os << " flight_pool=" << net.flight_pool_size()
     << " payload_pool=" << net.payload_pool_size()
     << " parked=" << net.parked_flights() << "\n";
  for (SiteId src = 0; src < net.size(); ++src) {
    os << "alive " << src << "=" << net.alive(src) << " queues";
    for (SiteId dst = 0; dst < net.size(); ++dst) {
      os << " " << dst << ":";
      for (size_t i = 0; i < net.parked_count(src, dst); ++i)
        os << net.parked_sent_at(src, dst, i) << ',';
    }
    os << "\n";
  }

  const obs::InvariantChecker& checker = w.checker();
  os << "checker checks=" << checker.checks()
     << " violations=" << w.violations();
  for (const std::string& r : w.reports()) os << " | " << r;
  os << "\n";

  for (SiteId i = 0; i < w.config().n; ++i) {
    const mutex::MutexSite& site = w.site(i);
    os << "site " << i << " state=" << static_cast<int>(site.state())
       << " entries=" << site.cs_entries()
       << " span=" << site.active_span()
       << " hops=" << site.last_entry_hops()
       << " stale=" << site.stale_drops() << " stale_by_type=";
    for (int t = 0; t < net::kNumMsgTypes; ++t)
      os << site.stale_drops(static_cast<net::MsgType>(t)) << ',';
    os << "\n";
    if (const auto* cs = dynamic_cast<const core::CaoSinghalSite*>(&site)) {
      cs->debug_dump(os);
      const auto& p = cs->protocol_stats();
      const auto& c = cs->case_stats();
      os << "  stalled=" << cs->stalled() << " stats=" << p.yields_sent
         << ',' << p.inquires_deferred << ',' << p.transfers_accepted << ','
         << p.transfers_ignored << ',' << p.replies_forwarded << ','
         << p.replies_direct << ',' << p.recoveries
         << " cases=" << c.grant_free << ',' << c.c1_empty_higher << ','
         << c.c2_empty_lower << ',' << c.c3_fail_newcomer << ','
         << c.c4_displace_head << ',' << c.c5_beats_lock << ','
         << c.c6_between << "\n";
    } else if (const auto* mk =
                   dynamic_cast<const mutex::MaekawaSite*>(&site)) {
      os << "  req_set=" << mk->req_set().size() << "\n";
    } else if (const auto* ry =
                   dynamic_cast<const mutex::RaymondSite*>(&site)) {
      os << "  token=" << ry->holds_token() << "\n";
    } else if (const auto* sk =
                   dynamic_cast<const mutex::SuzukiKasamiSite*>(&site)) {
      os << "  token=" << sk->holds_token() << "\n";
    } else if (const auto* rc =
                   dynamic_cast<const mutex::RoucairolCarvalhoSite*>(&site)) {
      os << "  auth=";
      for (SiteId j = 0; j < w.config().n; ++j)
        os << rc->holds_authorization(j);
      os << "\n";
    }
  }
  return os.str();
}

class WorldCheckpoint : public ::testing::TestWithParam<Case> {};

// Seeded random walks. At every step the World is copied into a twin, runs
// ahead a few random actions, and is copied back; it must then equal a
// fresh replay of the prefix. Both then take the same next action and must
// still agree. The walk ends at quiescence (both sealed and compared) or at
// the first violation, where the explorer stops too.
TEST_P(WorldCheckpoint, RestoredEqualsReplayedAndRunsOnIdentically) {
  const WorldConfig& cfg = GetParam().cfg;
  constexpr uint64_t kWalks = 24;
  uint64_t restores = 0;
  for (uint64_t seed = 1; seed <= kWalks; ++seed) {
    std::mt19937_64 rng(seed);
    World world(cfg);
    World twin(cfg);
    std::vector<Action> prefix;
    std::vector<Action> enabled;
    for (;;) {
      twin.copy_state_from(world);
      const uint64_t ahead = rng() % 5;
      for (uint64_t k = 0; k < ahead; ++k) {
        world.enabled(enabled);
        if (enabled.empty() || world.violations() > 0) break;
        world.apply(enabled[rng() % enabled.size()]);
      }
      world.copy_state_from(twin);
      ++restores;
      const bool done = world.violations() > 0 || world.quiescent();
      if (done && world.violations() == 0) world.seal();
      auto replayed = replay_schedule(cfg, prefix);
      ASSERT_EQ(observe(world), observe(*replayed))
          << GetParam().name << " walk " << seed << " restored after "
          << encode_actions(prefix);
      if (done) {  // a sealed (or violating) end state copies too
        twin.copy_state_from(world);
        ASSERT_EQ(observe(twin), observe(world))
            << GetParam().name << " walk " << seed << " end state";
        break;
      }

      world.enabled(enabled);
      ASSERT_FALSE(enabled.empty());
      const Action next = enabled[rng() % enabled.size()];
      world.apply(next);
      replayed->apply(next);
      prefix.push_back(next);
      ASSERT_EQ(observe(world), observe(*replayed))
          << GetParam().name << " walk " << seed << " ran on to "
          << encode_actions(prefix);
    }
  }
  EXPECT_GT(restores, kWalks * 5);  // walks are not trivially short
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsCrashesAndMutations, WorldCheckpoint,
    ::testing::ValuesIn(cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.name;
    });

// The simulator's half of the copy on its own: a World never cancels or
// stops its simulator, so the walks above cannot see those counters.
TEST(WorldCheckpointLayers, SimulatorCopiesClockAndCounters) {
  sim::Simulator a;
  int fired = 0;
  for (Time t = 0; t < 100; ++t) {
    const sim::Simulator::EventId id = a.schedule_at(t, [&fired] { ++fired; });
    if (t % 3 != 0) a.cancel(id);
  }
  a.run();
  a.stop();
  ASSERT_GT(a.compactions(), 0u);
  sim::Simulator b;
  b.schedule_at(7, [] {});
  b.run();
  b.copy_state_from(a);
  EXPECT_EQ(b.now(), a.now());
  EXPECT_EQ(b.events_executed(), a.events_executed());
  EXPECT_EQ(b.scheduled_total(), a.scheduled_total());
  EXPECT_EQ(b.cancelled_total(), a.cancelled_total());
  EXPECT_EQ(b.peak_heap(), a.peak_heap());
  EXPECT_EQ(b.compactions(), a.compactions());
  EXPECT_EQ(b.stopped(), a.stopped());
  EXPECT_EQ(b.pending(), 0u);
}

// The single-worker explorer at N=3, 2 CS per site, budget 30,000 explores
// exactly what the replay-only search did (schedules, nodes, pruned, all
// measured before checkpointing existed), rebuilds once, and re-applies at
// most kCheckpointSpacing - 1 actions per restore.
TEST(WorldCheckpointExplorer, CountersMatchReplayOnlySearch) {
  struct Pin {
    mutex::Algo algo;
    uint64_t schedules;
    uint64_t nodes;
    uint64_t pruned;
  };
  const Pin pins[] = {
      {mutex::Algo::kLamport, 30'000, 327'095, 217'096},
      {mutex::Algo::kRicartAgrawala, 30'000, 237'911, 110'241},
      {mutex::Algo::kRoucairolCarvalho, 30'000, 208'186, 84'754},
      {mutex::Algo::kMaekawa, 30'000, 292'881, 106'102},
      {mutex::Algo::kCaoSinghalNoProxy, 30'000, 292'881, 106'102},
      {mutex::Algo::kRaymond, 160, 1'300, 140},
      {mutex::Algo::kSuzukiKasami, 9'812, 129'970, 106'544},
      {mutex::Algo::kCaoSinghal, 30'000, 386'418, 330'331},
  };
  for (const Pin& pin : pins) {
    ExplorerConfig ec;
    ec.world = base_config(pin.algo);
    ec.dpor = Dpor::kSource;
    ec.max_schedules = 30'000;
    const ExploreResult r = Explorer(ec).run();
    const std::string_view name = mutex::to_string(pin.algo);
    EXPECT_EQ(r.schedules, pin.schedules) << name;
    EXPECT_EQ(r.nodes, pin.nodes) << name;
    EXPECT_EQ(r.sleep_skips, pin.pruned) << name;
    EXPECT_TRUE(r.violations.empty()) << name;
    EXPECT_EQ(r.replays, 1u) << name;
    EXPECT_GT(r.restores, 0u) << name;
    EXPECT_LE(r.replay_steps, r.restores * (kCheckpointSpacing - 1)) << name;
  }
}

}  // namespace
}  // namespace dqme::verify
