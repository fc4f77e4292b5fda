// Contract (negative) tests: the library's precondition checks must fire
// loudly on misuse instead of corrupting protocol state. Every DQME_CHECK
// on a public boundary gets exercised here.
#include <gtest/gtest.h>

#include "net/network.h"
#include "core/cao_singhal.h"
#include "core/failure_detector.h"
#include "harness/experiment.h"
#include "obs/event_log.h"
#include "quorum/factory.h"

namespace dqme {
namespace {

struct NullSite final : net::NetSite {
  void on_message(const net::Message&, LockId) override {}
};

TEST(Contracts, NetworkRejectsOutOfRangeEndpoints) {
  sim::Simulator sim;
  net::Network net(sim, 3, std::make_unique<net::ConstantDelay>(10), 1);
  EXPECT_THROW(net.send(0, 3, net::make_request(ReqId{1, 0})), CheckError);
  EXPECT_THROW(net.send(-1, 1, net::make_request(ReqId{1, 0})), CheckError);
  NullSite s;
  EXPECT_THROW(net.attach(5, &s), CheckError);
  EXPECT_THROW(net.crash(9), CheckError);
}

TEST(Contracts, NetworkRejectsEmptyBundle) {
  sim::Simulator sim;
  net::Network net(sim, 2, std::make_unique<net::ConstantDelay>(10), 1);
  EXPECT_THROW(net.send_bundle(0, 1, {}), CheckError);
}

TEST(Contracts, DeliveryWithoutReceiverIsAnError) {
  sim::Simulator sim;
  net::Network net(sim, 2, std::make_unique<net::ConstantDelay>(10), 1);
  net.send(0, 1, net::make_request(ReqId{1, 0}));  // nothing attached at 1
  EXPECT_THROW(sim.run(), CheckError);
}

TEST(Contracts, DelayModelsRejectDegenerateRanges) {
  EXPECT_THROW(net::ConstantDelay d(0), CheckError);
  EXPECT_THROW(net::UniformDelay d(10, 5), CheckError);
  EXPECT_THROW(net::ShiftedExponentialDelay d(10, 5, 100), CheckError);
  EXPECT_THROW(net::ClusteredDelay d({0, 1}, 100, 50), CheckError);
  EXPECT_THROW(net::ClusteredDelay d({}, 10, 100), CheckError);
}

TEST(Contracts, QuorumConstructorsRejectBadSizes) {
  EXPECT_THROW(quorum::make_quorum_system("grid", 0), CheckError);
  EXPECT_THROW(quorum::make_quorum_system("fpp", 12), CheckError);
  EXPECT_THROW(quorum::make_quorum_system("tree", 10), CheckError);
  EXPECT_THROW(quorum::make_quorum_system("hqc", 10), CheckError);
  EXPECT_THROW(quorum::make_quorum_system("gridset:5", 12), CheckError);
}

TEST(Contracts, QuorumQueriesRejectOutOfRangeSites) {
  auto qs = quorum::make_quorum_system("grid", 9);
  EXPECT_THROW(qs->quorum_for(9), CheckError);
  EXPECT_THROW(qs->quorum_for(-1), CheckError);
  std::vector<bool> wrong_size(5, true);
  EXPECT_THROW(qs->quorum_for_alive(0, wrong_size), CheckError);
}

TEST(Contracts, SiteConstructionRequiresMatchingSizes) {
  sim::Simulator sim;
  net::Network net(sim, 9, std::make_unique<net::ConstantDelay>(10), 1);
  auto small = quorum::make_quorum_system("grid", 4);  // wrong N
  EXPECT_THROW(core::CaoSinghalSite s(0, net, *small), CheckError);
}

TEST(Contracts, QuorumAlgosRequireAQuorumSystem) {
  sim::Simulator sim;
  net::Network net(sim, 4, std::make_unique<net::ConstantDelay>(10), 1);
  EXPECT_THROW(
      mutex::make_site(mutex::Algo::kCaoSinghal, 0, net, nullptr),
      CheckError);
  EXPECT_THROW(mutex::make_site(mutex::Algo::kMaekawa, 0, net, nullptr),
               CheckError);
}

TEST(Contracts, FactoryRejectsNonPositiveLockCounts) {
  sim::Simulator sim;
  net::Network net(sim, 9, std::make_unique<net::ConstantDelay>(10), 1);
  auto qs = quorum::make_quorum_system("grid", 9);
  mutex::AlgoOptions opts;
  opts.num_locks = 0;
  EXPECT_THROW(
      mutex::make_site(mutex::Algo::kCaoSinghal, 0, net, qs.get(), opts),
      CheckError);
  opts.num_locks = -3;
  EXPECT_THROW(
      mutex::make_site(mutex::Algo::kLamport, 0, net, nullptr, opts),
      CheckError);
}

TEST(Contracts, KeyedApiRejectsOutOfRangeLockIds) {
  sim::Simulator sim;
  net::Network net(sim, 9, std::make_unique<net::ConstantDelay>(10), 1);
  auto qs = quorum::make_quorum_system("grid", 9);
  mutex::AlgoOptions opts;
  opts.num_locks = 4;
  auto site = mutex::make_site(mutex::Algo::kCaoSinghal, 0, net, qs.get(),
                               opts);
  net.attach(0, site.get());
  EXPECT_THROW(site->request_cs(LockId{4}), CheckError);
  EXPECT_THROW(site->request_cs(kNoLock), CheckError);
  EXPECT_THROW(site->release_cs(LockId{7}), CheckError);
  site->request_cs(LockId{3});  // in range: fine
}

TEST(Contracts, UnknownAlgorithmNameIsRejected) {
  EXPECT_THROW(mutex::algo_from_string("paxos"), CheckError);
}

TEST(Contracts, EventLogRejectsZeroCapacity) {
  sim::Simulator sim;
  net::Network net(sim, 2, std::make_unique<net::ConstantDelay>(10), 1);
  EXPECT_THROW(obs::EventLog log(net, 0), CheckError);
}

TEST(Contracts, FailureDetectorValidatesVictims) {
  sim::Simulator sim;
  net::Network net(sim, 3, std::make_unique<net::ConstantDelay>(10), 1);
  core::FailureDetector fd(net, 100, 0, 1);
  EXPECT_THROW(fd.crash(7), CheckError);
}

TEST(Contracts, ReplicateRequiresAtLeastOneRun) {
  harness::ExperimentConfig cfg;
  cfg.n = 4;
  cfg.warmup = 1000;
  cfg.measure = 1000;
  EXPECT_THROW(harness::replicate(cfg, 0), CheckError);
}

TEST(Contracts, ExperimentRejectsOutOfRangeCrashVictim) {
  harness::ExperimentConfig cfg;
  cfg.n = 4;
  cfg.crashes.push_back({100, 9});
  EXPECT_THROW(harness::run_experiment(cfg), CheckError);
}

}  // namespace
}  // namespace dqme
