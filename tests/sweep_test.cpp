// Tests for the parallel experiment engine (harness/sweep.h): results must
// be byte-identical for any worker count (each run is a pure function of
// its config and seed), errors must propagate deterministically, and the
// worker pool must be clean under thread sanitizer (the stress tests here
// are the -fsanitize=thread CI job's main target).
#include <gtest/gtest.h>

#include <sstream>

#include "harness/sweep.h"
#include "mutex/factory.h"
#include "obs/lock_stats.h"
#include "obs/timeline.h"

namespace dqme::harness {
namespace {

ExperimentConfig small_config(mutex::Algo algo, uint64_t seed = 1) {
  ExperimentConfig cfg;
  cfg.algo = algo;
  cfg.n = 9;
  cfg.quorum = "grid";
  cfg.delay_kind = ExperimentConfig::DelayKind::kUniform;
  cfg.warmup = 20'000;
  cfg.measure = 100'000;
  cfg.seed = seed;
  return cfg;
}

// Serializes every simulation-derived field with exact (hexfloat) double
// representation, so equality below means bit-identical results. Engine
// wall-clock (wall_ms) is deliberately excluded: it is host timing, not
// simulation output.
std::string fingerprint(const ExperimentResult& r) {
  std::ostringstream os;
  os << std::hexfloat;
  const Summary& s = r.summary;
  os << s.window << '|' << s.completed << '|' << s.violations << '|'
     << s.wire_msgs_per_cs << '|' << s.ctrl_msgs_per_cs << '|';
  for (double v : s.per_type_per_cs) os << v << ',';
  os << '|' << s.sync_delay_mean << '|' << s.sync_delay_contended << '|'
     << s.contended_gaps << '|' << s.waiting_mean << '|' << s.waiting_max
     << '|' << s.waiting_p50 << '|' << s.waiting_p95 << '|' << s.waiting_p99
     << '|' << s.queueing_mean << '|' << s.response_mean << '|'
     << s.throughput << '|' << s.fairness_jain << '|';
  os << r.mean_quorum_size << '|' << r.drained_clean << '|'
     << r.demands_issued << '|' << r.demands_completed << '|'
     << r.demands_aborted << '|' << r.stale_drops << '|';
  os << r.case_stats.grant_free << ',' << r.case_stats.c1_empty_higher << ','
     << r.case_stats.c2_empty_lower << ',' << r.case_stats.c3_fail_newcomer
     << ',' << r.case_stats.c4_displace_head << ','
     << r.case_stats.c5_beats_lock << ',' << r.case_stats.c6_between << '|';
  os << r.protocol_stats.yields_sent << ','
     << r.protocol_stats.inquires_deferred << ','
     << r.protocol_stats.transfers_accepted << ','
     << r.protocol_stats.transfers_ignored << ','
     << r.protocol_stats.replies_forwarded << ','
     << r.protocol_stats.replies_direct << ','
     << r.protocol_stats.recoveries << '|';
  os << r.sync_delay_in_t << '|' << r.sim_events;
  return os.str();
}

std::string fingerprint(const std::vector<ExperimentResult>& rs) {
  std::string out;
  for (const auto& r : rs) {
    out += fingerprint(r);
    out += '\n';
  }
  return out;
}

// The per-run isolation invariant: a sweep's aggregated output is
// byte-identical no matter how many workers executed it, for every
// algorithm in the repo.
TEST(Sweep, ByteIdenticalAcrossJobCountsAllAlgorithms) {
  std::vector<ExperimentConfig> grid;
  for (mutex::Algo algo : mutex::all_algos())
    for (uint64_t seed = 1; seed <= 3; ++seed)
      grid.push_back(small_config(algo, seed));

  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 8;
  const auto a = SweepRunner(serial).run(grid);
  const auto b = SweepRunner(parallel).run(grid);
  ASSERT_EQ(a.size(), grid.size());
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

// The time-resolved telemetry honors the same contract as the scalar
// summary: per-run timelines/lock-stats AND their merged folds (result-
// index order, the Runner's fold) are byte-identical for any worker count.
TEST(Sweep, TimelineAndLockStatsByteIdenticalAcrossJobCounts) {
  std::vector<ExperimentConfig> grid;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    ExperimentConfig cfg = small_config(mutex::Algo::kCaoSinghal, seed);
    cfg.timeline_window = 10'000;
    cfg.options.num_locks = 4;
    cfg.lock_stats_k = 2;  // < num_locks: forces the SpaceSaving path too
    grid.push_back(cfg);
  }
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 8;
  const auto a = SweepRunner(serial).run(grid);
  const auto b = SweepRunner(parallel).run(grid);
  ASSERT_EQ(a.size(), grid.size());
  const auto telemetry_fp = [](const std::vector<ExperimentResult>& rs) {
    std::ostringstream os;
    obs::Timeline folded_tl;
    obs::LockStats folded_ls;
    for (const auto& r : rs) {
      r.timeline.write_json(os);
      os << '\n';
      r.lock_stats.write_json(os);
      os << '\n';
      folded_tl.merge(r.timeline);
      folded_ls.merge(r.lock_stats);
    }
    folded_tl.write_json(os);
    folded_ls.write_json(os);
    return os.str();
  };
  EXPECT_EQ(telemetry_fp(a), telemetry_fp(b));
  // And the series actually carry data — a trivially-empty timeline would
  // make the equality above vacuous.
  EXPECT_TRUE(a.front().timeline.enabled());
  EXPECT_GT(a.front().timeline.num_windows(), 1u);
  EXPECT_GT(a.front().lock_stats.total(), 0u);
}

TEST(Sweep, ReplicateParallelMatchesSerial) {
  const ExperimentConfig cfg = small_config(mutex::Algo::kCaoSinghal);
  const auto serial = replicate(cfg, 8, /*jobs=*/1);
  const auto parallel = replicate(cfg, 8, /*jobs=*/8);
  EXPECT_EQ(fingerprint(serial), fingerprint(parallel));
  // Seeds are assigned in order regardless of which worker ran them.
  for (size_t r = 0; r < serial.size(); ++r)
    EXPECT_EQ(serial[r].demands_issued, parallel[r].demands_issued);
}

TEST(Sweep, ExpandSeedsCountsUpFromBase) {
  ExperimentConfig cfg = small_config(mutex::Algo::kLamport, 41);
  const auto grid = expand_seeds(cfg, 3);
  ASSERT_EQ(grid.size(), 3u);
  EXPECT_EQ(grid[0].seed, 41u);
  EXPECT_EQ(grid[1].seed, 42u);
  EXPECT_EQ(grid[2].seed, 43u);
  EXPECT_THROW(expand_seeds(cfg, 0), CheckError);
}

TEST(Sweep, EmptyGridIsEmptyResult) {
  SweepOptions opts;
  opts.jobs = 4;
  EXPECT_TRUE(SweepRunner(opts).run({}).empty());
}

TEST(Sweep, AggregateRejectsEmptyAndComputesSd) {
  auto metric = [](const ExperimentResult& r) {
    return static_cast<double>(r.demands_issued);
  };
  EXPECT_THROW(aggregate({}, metric), CheckError);
  std::vector<ExperimentResult> rs(2);
  rs[0].demands_issued = 10;
  rs[1].demands_issued = 14;
  const Replicated rep = aggregate(rs, metric);
  EXPECT_DOUBLE_EQ(rep.mean, 12.0);
  EXPECT_NEAR(rep.sd, 2.8284271247461903, 1e-12);
}

// A bad config must surface as the same exception for any worker count,
// and must not poison the rest of the sweep's results.
TEST(Sweep, ErrorsPropagateFromWorkers) {
  std::vector<ExperimentConfig> grid(4, small_config(mutex::Algo::kLamport));
  grid[2].crashes.push_back({100, 99});  // victim out of range -> throws
  for (int jobs : {1, 4}) {
    SweepOptions opts;
    opts.jobs = jobs;
    EXPECT_THROW(SweepRunner(opts).run(grid), CheckError);
  }
}

TEST(Sweep, IntegrityCheckCanBeDisabled) {
  // With checking off the same failing config merely returns its result.
  std::vector<ExperimentConfig> grid(1, small_config(mutex::Algo::kLamport));
  grid[0].measure = 1;  // window too small to drain? still fine — just run
  SweepOptions opts;
  opts.check_integrity = false;
  EXPECT_NO_THROW(SweepRunner(opts).run(grid));
}

// Thread-sanitizer targets: many small jobs claimed through the atomic
// cursor by a full worker pool, repeated so claim/join edges interleave.
TEST(SweepStress, WorkerPoolManySmallJobs) {
  std::vector<ExperimentConfig> grid;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    ExperimentConfig cfg = small_config(
        seed % 2 ? mutex::Algo::kCaoSinghal : mutex::Algo::kRicartAgrawala,
        seed);
    cfg.warmup = 5'000;
    cfg.measure = 20'000;
    grid.push_back(cfg);
  }
  SweepOptions opts;
  opts.jobs = 8;
  std::string first;
  for (int round = 0; round < 3; ++round) {
    const auto results = SweepRunner(opts).run(grid);
    const std::string fp = fingerprint(results);
    if (round == 0)
      first = fp;
    else
      EXPECT_EQ(fp, first);
  }
}

TEST(SweepStress, OversubscribedPoolClampsToJobCount) {
  std::vector<ExperimentConfig> grid(3, small_config(mutex::Algo::kRaymond));
  SweepOptions opts;
  opts.jobs = 64;  // more workers than jobs: pool must clamp, not wedge
  const auto results = SweepRunner(opts).run(grid);
  EXPECT_EQ(results.size(), 3u);
}

}  // namespace
}  // namespace dqme::harness
