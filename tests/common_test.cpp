// Unit tests for common/: request identities, priority order, RNG, the
// command-line flag table.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/timestamp.h"

namespace dqme {
namespace {

TEST(ReqId, DefaultIsInvalidSentinel) {
  ReqId r;
  EXPECT_FALSE(r.valid());
  EXPECT_EQ(r, kNoRequest);
}

TEST(ReqId, SmallerSequenceNumberWins) {
  ReqId a{1, 5}, b{2, 0};
  EXPECT_LT(a, b);  // priority rule 1 (§3.1)
}

TEST(ReqId, TiesBrokenBySmallerSiteNumber) {
  ReqId a{7, 2}, b{7, 3};
  EXPECT_LT(a, b);  // priority rule 2 (§3.1)
}

TEST(ReqId, SentinelComparesBelowEveryRealRequest) {
  // "(max,max)" must have lower priority than any request (paper §3.1).
  ReqId real{std::numeric_limits<SeqNum>::max() - 1, 1'000'000};
  EXPECT_LT(real, kNoRequest);
}

TEST(ReqId, EqualityIsFieldwise) {
  EXPECT_EQ((ReqId{3, 4}), (ReqId{3, 4}));
  EXPECT_NE((ReqId{3, 4}), (ReqId{3, 5}));
  EXPECT_NE((ReqId{3, 4}), (ReqId{4, 4}));
}

TEST(ReqId, OrderingIsTotalOnSample) {
  std::vector<ReqId> sample;
  for (SeqNum s = 1; s <= 5; ++s)
    for (SiteId i = 0; i < 5; ++i) sample.push_back({s, i});
  std::set<ReqId> ordered(sample.begin(), sample.end());
  EXPECT_EQ(ordered.size(), sample.size());
  EXPECT_EQ(*ordered.begin(), (ReqId{1, 0}));  // highest priority overall
}

TEST(Check, ThrowsWithDiagnosticMessage) {
  try {
    DQME_CHECK_MSG(1 == 2, "math broke at " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("math broke at 42"),
              std::string::npos);
  }
}

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 4);
}

TEST(Rng, ForkIsDeterministicAcrossReplays) {
  Rng parent(9);
  Rng child = parent.fork();
  Rng parent2(9);
  Rng child2 = parent2.fork();
  (void)parent.next_u64();  // consuming the parent must not affect child
  for (int i = 0; i < 10; ++i) EXPECT_EQ(child.next_u64(), child2.next_u64());
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.uniform_int(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntRejectsEmptyRange) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform_int(8, 7), CheckError);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(11);
  double sum = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) sum += rng.exponential(250.0);
  EXPECT_NEAR(sum / kDraws, 250.0, 10.0);
}

TEST(Rng, ExponentialTimeIsAtLeastOneTick) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.exponential_time(2), 1);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.02);
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(19);
  for (int trial = 0; trial < 50; ++trial) {
    auto s = rng.sample_without_replacement(20, 7);
    ASSERT_EQ(s.size(), 7u);
    std::set<int> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 7u);
    for (int v : s) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 20);
    }
  }
}

TEST(Rng, SampleWholePopulationIsPermutation) {
  Rng rng(23);
  auto s = rng.sample_without_replacement(10, 10);
  std::sort(s.begin(), s.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(s[static_cast<size_t>(i)], i);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// ------------------------------------------------------------- flags

std::vector<std::string> parse(const flags::Table& t,
                               std::vector<const char*> args,
                               bool pass_through = false) {
  args.insert(args.begin(), "prog");
  return t.parse(static_cast<int>(args.size()), args.data(), pass_through);
}

struct FlagFixture {
  int n = 25;
  double rate = 0.5;
  bool ft = false;
  bool json = false;
  std::string json_path = "unset";
  std::string out;
  flags::Table t{"/path/to/prog"};
  FlagFixture() {
    t.number("--n", "N", "sites", n, 1)
        .number("--rate", "R", "load", rate, 0.0)
        .flag("--ft", "fault tolerance", ft)
        .optional("--json", "PATH", "report", json, json_path)
        .text("--out", "FILE", "output", out);
  }
};

TEST(Flags, ValueFlagsTakeBothForms) {
  FlagFixture f;
  parse(f.t, {"--n", "9", "--rate=0.25", "--out=a.json"});
  EXPECT_EQ(f.n, 9);
  EXPECT_EQ(f.rate, 0.25);
  EXPECT_EQ(f.out, "a.json");
  parse(f.t, {"--n=7", "--out", "b.json"});
  EXPECT_EQ(f.n, 7);
  EXPECT_EQ(f.out, "b.json");
}

TEST(Flags, OptionalValueTakesTheEqualsFormOnly) {
  FlagFixture f;
  parse(f.t, {"--json"});
  EXPECT_TRUE(f.json);
  EXPECT_EQ(f.json_path, "");
  parse(f.t, {"--json=r.json"});
  EXPECT_EQ(f.json_path, "r.json");
  // The next word is not the optional flag's value.
  EXPECT_THROW(parse(f.t, {"--json", "r.json"}), flags::UsageError);
}

TEST(Flags, BooleansRejectAValue) {
  FlagFixture f;
  parse(f.t, {"--ft"});
  EXPECT_TRUE(f.ft);
  EXPECT_THROW(parse(f.t, {"--ft=1"}), flags::UsageError);
}

TEST(Flags, NumbersParseStrictly) {
  FlagFixture f;
  for (const char* bad : {"abc", "12x", "", " 3", "0x10", "-3", "0",
                          "99999999999999999999"})
    EXPECT_THROW(parse(f.t, {"--n", bad}), flags::UsageError) << bad;
  EXPECT_THROW(parse(f.t, {"--rate", "nan"}), flags::UsageError);
  EXPECT_THROW(parse(f.t, {"--rate", "inf"}), flags::UsageError);
  EXPECT_THROW(parse(f.t, {"--rate", "-0.5"}), flags::UsageError);
  EXPECT_EQ(flags::parse_number<uint64_t>("18446744073709551615", "x"),
            18446744073709551615ull);
  EXPECT_THROW(flags::parse_number<uint64_t>("-1", "x"), flags::UsageError);
  EXPECT_EQ(flags::parse_number<int>("-3", "x"), -3);
}

// A maximum caps flags that start one OS thread per unit (dqme_explore
// --workers, dqme_sim --backend rt --n, the benches' --jobs): checked at
// parse time, so a huge value is rejected before any thread starts.
TEST(Flags, NumbersRespectAMaximumAndHelpPrintsIt) {
  int workers = 1;
  flags::Table t("prog");
  t.number("--workers", "K", "worker threads", workers, 1, 256);
  parse(t, {"--workers", "256"});
  EXPECT_EQ(workers, 256);
  EXPECT_THROW(parse(t, {"--workers", "257"}), flags::UsageError);
  EXPECT_THROW(parse(t, {"--workers=2147483647"}), flags::UsageError);
  EXPECT_EQ(workers, 256);  // a rejected value leaves the target alone
  EXPECT_THROW(parse(t, {"--workers=0"}), flags::UsageError);
  std::ostringstream os;
  t.usage(os);
  EXPECT_NE(os.str().find("worker threads (at most 256)"), std::string::npos)
      << os.str();
  EXPECT_EQ(flags::parse_number<double>("0.5", "x", 0.0, 1.0), 0.5);
  EXPECT_THROW(flags::parse_number<double>("1.5", "x", 0.0, 1.0),
               flags::UsageError);
  // Without a maximum, help carries no bound.
  FlagFixture f;
  std::ostringstream plain;
  f.t.usage(plain);
  EXPECT_EQ(plain.str().find("at most"), std::string::npos);
}

TEST(Flags, ChoiceAcceptsOnlyItsNames) {
  size_t picked = 9;
  flags::Table t("prog");
  t.choice("--load", "MODE", "closed | open", {"closed", "open"},
           [&picked](size_t i) { picked = i; });
  parse(t, {"--load=open"});
  EXPECT_EQ(picked, 1u);
  parse(t, {"--load", "closed"});
  EXPECT_EQ(picked, 0u);
  EXPECT_THROW(parse(t, {"--load", "Open"}), flags::UsageError);
}

TEST(Flags, MissingValueUnknownFlagAndEmptyTextAreErrors) {
  FlagFixture f;
  EXPECT_THROW(parse(f.t, {"--n"}), flags::UsageError);
  EXPECT_THROW(parse(f.t, {"--bogus"}), flags::UsageError);
  EXPECT_THROW(parse(f.t, {"stray"}), flags::UsageError);
  EXPECT_THROW(parse(f.t, {"--out="}), flags::UsageError);
}

TEST(Flags, LeftoversPassThroughInOrderWhenAsked) {
  FlagFixture f;
  const auto rest =
      parse(f.t, {"--benchmark_filter=x", "--n", "3", "y"}, true);
  EXPECT_EQ(rest, (std::vector<std::string>{"--benchmark_filter=x", "y"}));
  EXPECT_EQ(f.n, 3);
}

TEST(Flags, HelpIsGeneratedFromTheTable) {
  FlagFixture f;
  EXPECT_THROW(parse(f.t, {"--n", "3", "--help"}),
               flags::Table::HelpRequested);
  EXPECT_THROW(parse(f.t, {"-h"}), flags::Table::HelpRequested);
  std::ostringstream os;
  f.t.usage(os);
  const std::string u = os.str();
  EXPECT_EQ(u.rfind("usage: prog [options]\n", 0), 0u) << u;
  for (const char* entry : {"--n N", "--rate R", "--ft", "--json[=PATH]",
                            "--out FILE", "--help"})
    EXPECT_NE(u.find(entry), std::string::npos) << entry;
  EXPECT_TRUE(f.t.has("--json=x"));
  EXPECT_FALSE(f.t.has("--jso"));
}

TEST(Flags, RegisteringANameTwiceIsAProgramBug) {
  bool b = false;
  flags::Table t("prog");
  t.flag("--x", "x", b);
  EXPECT_THROW(t.flag("--x", "again", b), std::logic_error);
}

}  // namespace
}  // namespace dqme
