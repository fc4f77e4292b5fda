// Tests for the obs metrics registry: counter/gauge/histogram semantics,
// deterministic merge (the SweepRunner contract), and JSON shape.
#include <gtest/gtest.h>

#include <sstream>

#include "harness/sweep.h"
#include "obs/registry.h"

namespace dqme::obs {
namespace {

TEST(Histogram, RecordsIntoFixedBuckets) {
  Histogram h(0, 10, 5);  // [0,10) [10,20) ... [40,50)
  h.record(-1);           // underflow
  h.record(0);
  h.record(9.99);
  h.record(10);
  h.record(49.9);
  h.record(50);  // overflow
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[4], 1u);
  EXPECT_DOUBLE_EQ(h.sum(), -1 + 0 + 9.99 + 10 + 49.9 + 50);
}

TEST(Histogram, PercentileUsesBucketMidpoints) {
  Histogram h(0, 10, 10);
  for (int i = 0; i < 90; ++i) h.record(5);   // bucket 0
  for (int i = 0; i < 10; ++i) h.record(95);  // bucket 9
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 5);
  EXPECT_DOUBLE_EQ(h.percentile(0.95), 95);
}

TEST(Histogram, QuantileAccessorsMatchPercentile) {
  Histogram h(0, 10, 10);
  for (int i = 0; i < 90; ++i) h.record(5);
  for (int i = 0; i < 10; ++i) h.record(95);
  EXPECT_DOUBLE_EQ(h.p50(), h.percentile(0.50));
  EXPECT_DOUBLE_EQ(h.p95(), h.percentile(0.95));
  EXPECT_DOUBLE_EQ(h.p99(), h.percentile(0.99));
  EXPECT_DOUBLE_EQ(h.p50(), 5);
  EXPECT_DOUBLE_EQ(h.p99(), 95);
}

TEST(Histogram, MergeAddsBucketwise) {
  Histogram a(0, 10, 3), b(0, 10, 3);
  a.record(5);
  b.record(5);
  b.record(25);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.buckets()[0], 2u);
  EXPECT_EQ(a.buckets()[2], 1u);
}

TEST(Histogram, MergeIntoDefaultAdoptsSpec) {
  Histogram a;  // default-constructed, never declared
  Histogram b(0, 10, 3);
  b.record(15);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.buckets().size(), 3u);
}

TEST(Histogram, MergeRejectsMismatchedSpecs) {
  Histogram a(0, 10, 3), b(0, 5, 3);
  a.record(1);
  b.record(1);
  EXPECT_THROW(a.merge(b), CheckError);
}

TEST(LogHistogram, RecordsIntoDoublingBuckets) {
  Histogram h = Histogram::log2(10, 4);  // [10,20) [20,40) [40,80) [80,160)
  h.record(9.99);  // underflow
  h.record(10);    // exact lower boundary -> bucket 0
  h.record(19.9);
  h.record(20);  // exact boundary -> bucket 1, not 0
  h.record(79.9);
  h.record(159.9);
  h.record(160);  // overflow
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);
  EXPECT_TRUE(h.is_log());
  EXPECT_DOUBLE_EQ(h.bucket_lower(0), 10);
  EXPECT_DOUBLE_EQ(h.bucket_upper(0), 20);
  EXPECT_DOUBLE_EQ(h.bucket_lower(3), 80);
  EXPECT_DOUBLE_EQ(h.bucket_upper(3), 160);
}

TEST(LogHistogram, CoversManyDecadesWithFewBuckets) {
  // The motivating bug: waiting times span T/10 .. thousands of T, and a
  // 100-bucket linear histogram dumped >99% of samples into overflow.
  Histogram h = Histogram::log2(100, 36);
  h.record(150);        // ~one message delay
  h.record(500'000);    // heavy contention
  h.record(2'000'000);  // saturation tail
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_EQ(h.underflow(), 0u);
}

TEST(LogHistogram, PercentileUsesBucketMidpoints) {
  Histogram h = Histogram::log2(10, 4);
  for (int i = 0; i < 90; ++i) h.record(15);  // bucket 0: [10,20)
  for (int i = 0; i < 10; ++i) h.record(90);  // bucket 3: [80,160)
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 15);    // midpoint of [10,20)
  EXPECT_DOUBLE_EQ(h.percentile(0.95), 120);  // midpoint of [80,160)
}

TEST(LogHistogram, PercentileResolvesOutOfRangeMassToEdges) {
  Histogram h = Histogram::log2(10, 2);  // [10,20) [20,40)
  for (int i = 0; i < 50; ++i) h.record(1);    // all underflow
  for (int i = 0; i < 50; ++i) h.record(100);  // all overflow
  EXPECT_DOUBLE_EQ(h.percentile(0.01), 10);  // underflow -> lo
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 40);  // overflow -> top edge
}

TEST(LogHistogram, MergeRejectsLinearCounterpart) {
  // Same lo/width/bucket-count, different bucketing mode: still a spec
  // mismatch.
  Histogram log_h = Histogram::log2(10, 4);
  Histogram lin_h(10, 10, 4);
  log_h.record(15);
  lin_h.record(15);
  EXPECT_THROW(log_h.merge(lin_h), CheckError);
  Histogram a = Histogram::log2(10, 4), b = Histogram::log2(10, 4);
  a.record(15);
  b.record(35);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.buckets()[0], 1u);
  EXPECT_EQ(a.buckets()[1], 1u);
}

TEST(Registry, CounterAndGaugeReferencesAreStable) {
  Registry reg;
  uint64_t& c = reg.counter("cs.completed");
  ++c;
  // Creating many more entries must not invalidate the reference.
  for (int i = 0; i < 100; ++i)
    reg.counter("filler." + std::to_string(i)) = 1;
  ++c;
  EXPECT_EQ(*reg.find_counter("cs.completed"), 2u);
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
}

TEST(Registry, HistogramRedeclarationWithSameSpecIsIdempotent) {
  Registry reg;
  Histogram& h1 = reg.histogram("waiting", 0, 100, 10);
  Histogram& h2 = reg.histogram("waiting", 0, 100, 10);
  EXPECT_EQ(&h1, &h2);
  EXPECT_THROW(reg.histogram("waiting", 0, 50, 10), CheckError);
}

TEST(Registry, LogHistogramAccessorAndKindMismatch) {
  Registry reg;
  Histogram& h1 = reg.log_histogram("waiting", 100, 36);
  Histogram& h2 = reg.log_histogram("waiting", 100, 36);
  EXPECT_EQ(&h1, &h2);
  EXPECT_TRUE(h1.is_log());
  // Re-declaring the same name with the other bucketing mode is a spec
  // mismatch in both directions.
  EXPECT_THROW(reg.histogram("waiting", 100, 100, 36), CheckError);
  reg.histogram("linear", 0, 10, 4);
  EXPECT_THROW(reg.log_histogram("linear", 10, 4), CheckError);
}

TEST(Registry, WriteJsonEmitsHistogramKind) {
  Registry reg;
  reg.histogram("lin", 0, 10, 2).record(5);
  reg.log_histogram("log", 10, 2).record(15);
  std::ostringstream os;
  reg.write_json(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"lin\": {\"kind\": \"linear\""), std::string::npos);
  EXPECT_NE(s.find("\"log\": {\"kind\": \"log2\""), std::string::npos);
}

TEST(Registry, MergeSumsCountersMaxesGauges) {
  Registry a, b;
  a.counter("msgs") = 10;
  b.counter("msgs") = 7;
  b.counter("only_b") = 3;
  a.gauge("peak") = 5;
  b.gauge("peak") = 9;
  a.histogram("w", 0, 1, 4).record(2.5);
  b.histogram("w", 0, 1, 4).record(2.5);
  a.merge(b);
  EXPECT_EQ(*a.find_counter("msgs"), 17u);
  EXPECT_EQ(*a.find_counter("only_b"), 3u);
  EXPECT_DOUBLE_EQ(*a.find_gauge("peak"), 9);
  EXPECT_EQ(a.find_histogram("w")->buckets()[2], 2u);
}

TEST(Registry, MergeIsOrderInsensitiveForTheSweepContract) {
  // merge_registries folds in index order; the result of merging the same
  // multiset of registries must not depend on that order.
  Registry a, b, ab, ba;
  a.counter("x") = 1;
  a.gauge("g") = 3;
  b.counter("x") = 2;
  b.gauge("g") = 7;
  ab.merge(a);
  ab.merge(b);
  ba.merge(b);
  ba.merge(a);
  std::ostringstream sab, sba;
  ab.write_json(sab);
  ba.write_json(sba);
  EXPECT_EQ(sab.str(), sba.str());
}

TEST(Registry, WriteJsonEmitsSortedDeterministicObject) {
  Registry reg;
  reg.counter("b.count") = 2;
  reg.counter("a.count") = 1;
  reg.gauge("depth") = 4.5;
  reg.histogram("w", 0, 10, 2).record(5);
  std::ostringstream os;
  reg.write_json(os);
  const std::string s = os.str();
  // Sorted keys: "a.count" must precede "b.count".
  EXPECT_LT(s.find("\"a.count\""), s.find("\"b.count\""));
  EXPECT_NE(s.find("\"gauges\": {\"depth\": 4.5}"), std::string::npos);
  EXPECT_NE(s.find("\"buckets\": [1, 0]"), std::string::npos);
  // Quantiles ride along so bench --json consumers need no bucket math.
  EXPECT_NE(s.find("\"p50\": "), std::string::npos);
  EXPECT_NE(s.find("\"p95\": "), std::string::npos);
  EXPECT_NE(s.find("\"p99\": "), std::string::npos);
}

TEST(Registry, ExperimentRunsFillAndMergeRegistries) {
  harness::ExperimentConfig cfg;
  cfg.algo = mutex::Algo::kCaoSinghal;
  cfg.n = 9;
  cfg.warmup = 5'000;
  cfg.measure = 60'000;
  auto results = harness::replicate(cfg, 2);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_GT(*r.registry.find_counter("sim.events"), 0u);
    EXPECT_GT(*r.registry.find_counter("net.wire_msgs"), 0u);
    EXPECT_GT(*r.registry.find_gauge("sim.peak_heap"), 0);
    ASSERT_NE(r.registry.find_histogram("waiting"), nullptr);
    EXPECT_EQ(r.registry.find_histogram("waiting")->count(),
              *r.registry.find_counter("cs.completed"));
  }
  const Registry merged = harness::merge_registries(results);
  EXPECT_EQ(*merged.find_counter("sim.events"),
            *results[0].registry.find_counter("sim.events") +
                *results[1].registry.find_counter("sim.events"));
  EXPECT_GE(*merged.find_gauge("sim.peak_heap"),
            *results[0].registry.find_gauge("sim.peak_heap"));
}

TEST(Registry, MergedViewIsIdenticalForAnyWorkerCount) {
  harness::ExperimentConfig cfg;
  cfg.algo = mutex::Algo::kMaekawa;
  cfg.n = 9;
  cfg.warmup = 5'000;
  cfg.measure = 40'000;
  const Registry r1 = harness::merge_registries(harness::replicate(cfg, 4, 1));
  const Registry r4 = harness::merge_registries(harness::replicate(cfg, 4, 4));
  std::ostringstream s1, s4;
  r1.write_json(s1);
  r4.write_json(s4);
  EXPECT_EQ(s1.str(), s4.str());
}

TEST(Sweep, SharedCaptureAcrossConfigsIsRejected) {
  harness::ExperimentConfig cfg;
  cfg.n = 9;
  cfg.warmup = 1'000;
  cfg.measure = 10'000;
  Recording cap;
  cfg.capture = &cap;
  auto grid = harness::expand_seeds(cfg, 2);
  EXPECT_THROW(harness::SweepRunner().run(grid), CheckError);
  // A single config with a capture is the supported recording path.
  grid.resize(1);
  EXPECT_NO_THROW(harness::SweepRunner().run(grid));
  EXPECT_GT(cap.events.size(), 0u);
}

}  // namespace
}  // namespace dqme::obs
