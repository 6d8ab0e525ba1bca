// HotStuff-2 as the underlying protocol of a full cluster: the pacemakers
// synchronize it exactly as they do the 3-phase core, and the two-phase
// commit rule shows up as a one-view-earlier commit frontier.
#include <gtest/gtest.h>

#include "adversary/behaviors.h"
#include "consensus/kv_store.h"
#include "runtime/cluster.h"

namespace lumiere::runtime {
namespace {

std::function<std::vector<std::uint8_t>(View)> tagged_workload() {
  return [](View v) {
    return consensus::KvStore::set_command("view", std::to_string(v));
  };
}

crypto::Digest replay_all(const consensus::Ledger& ledger, std::size_t prefix) {
  consensus::KvStore store;
  for (std::size_t i = 0; i < prefix && i < ledger.size(); ++i) {
    store.apply(ledger.entries()[i].payload);
  }
  return store.state_digest();
}

TEST(HotStuff2ClusterTest, ReplicasConvergeUnderLumiere) {
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(4, Duration::millis(10), /*x=*/4));
  options.pacemaker("lumiere");
  options.core("hotstuff-2");
  options.seed(77);
  options.delay(std::make_shared<sim::UniformDelay>(Duration::micros(200),
                                                      Duration::millis(3)));
  options.workload(tagged_workload());
  Cluster cluster(options);
  cluster.run_for(Duration::seconds(20));

  std::size_t shortest = SIZE_MAX;
  for (const ProcessId id : cluster.honest_ids()) {
    shortest = std::min(shortest, cluster.node(id).ledger().size());
  }
  ASSERT_GE(shortest, 10U) << "too few commits to be meaningful";
  const crypto::Digest reference = replay_all(cluster.node(0).ledger(), shortest);
  for (const ProcessId id : cluster.honest_ids()) {
    EXPECT_EQ(replay_all(cluster.node(id).ledger(), shortest), reference)
        << "replica " << id << " diverged";
    EXPECT_TRUE(cluster.node(id).ledger().prefix_consistent_with(cluster.node(0).ledger()));
  }
}

TEST(HotStuff2ClusterTest, SurvivesByzantineSilentLeaders) {
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(7, Duration::millis(10), /*x=*/4));
  options.pacemaker("lumiere");
  options.core("hotstuff-2");
  options.seed(78);
  options.delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)));
  options.workload(tagged_workload());
  options.behaviors(adversary::byzantine_set(
      {0, 1}, [](ProcessId) { return std::make_unique<adversary::SilentLeaderBehavior>(); }));
  Cluster cluster(options);
  cluster.run_for(Duration::seconds(60));

  std::size_t shortest = SIZE_MAX;
  for (const ProcessId id : cluster.honest_ids()) {
    shortest = std::min(shortest, cluster.node(id).ledger().size());
  }
  ASSERT_GE(shortest, 5U);
  for (const ProcessId id : cluster.honest_ids()) {
    EXPECT_TRUE(cluster.node(id).ledger().prefix_consistent_with(cluster.node(2).ledger()));
  }
}

TEST(HotStuff2ClusterTest, CommitFrontierLeadsThreePhaseCore) {
  // Identical runs except for the core: the two-phase rule commits each
  // block one QC earlier, so over the same wall-clock window the HS2
  // ledger's committed frontier is ahead (and never behind).
  auto run = [](std::string core) {
    ScenarioBuilder options;
    options.params(ProtocolParams::for_n(4, Duration::millis(10), /*x=*/4));
    options.pacemaker("lumiere");
    options.core(core);
    options.seed(79);
    options.delay(std::make_shared<sim::FixedDelay>(Duration::micros(500)));
    options.workload(tagged_workload());
    auto cluster = std::make_unique<Cluster>(std::move(options));
    cluster->run_for(Duration::seconds(15));
    const auto& entries = cluster->node(0).ledger().entries();
    return entries.empty() ? View{-1} : entries.back().view();
  };
  const View hs2_frontier = run("hotstuff-2");
  const View hs3_frontier = run("chained-hotstuff");
  EXPECT_GT(hs2_frontier, 0);
  EXPECT_GE(hs2_frontier, hs3_frontier);
}

/// HotStuff-2 must stay live under every pacemaker, exactly like the
/// 3-phase core (the pacemaker-core interface is core-agnostic).
class Hs2AcrossPacemakers : public ::testing::TestWithParam<std::string> {};

TEST_P(Hs2AcrossPacemakers, CommitsUnderEveryPacemaker) {
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(4, Duration::millis(10), /*x=*/4));
  options.pacemaker(GetParam());
  options.core("hotstuff-2");
  options.seed(80);
  options.delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)));
  options.workload(tagged_workload());
  Cluster cluster(options);
  cluster.run_for(Duration::seconds(45));
  std::size_t shortest = SIZE_MAX;
  for (const ProcessId id : cluster.honest_ids()) {
    shortest = std::min(shortest, cluster.node(id).ledger().size());
  }
  EXPECT_GE(shortest, 5U) << GetParam() << " stalled HotStuff-2";
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, Hs2AcrossPacemakers,
    ::testing::Values("round-robin", "cogsworth",
                      "nk20", "raresync",
                      "lp22", "fever",
                      "basic-lumiere", "lumiere"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace lumiere::runtime
