// All-honest liveness for every pacemaker: decisions must flow under a
// benign network from a synchronized start. This is the basic
// view-synchronization contract (condition (2) of Section 2).
#include <gtest/gtest.h>

#include "runtime/cluster.h"

namespace lumiere::runtime {
namespace {

struct Case {
  std::string kind;
  std::uint32_t n;
};

class PacemakerLiveness : public ::testing::TestWithParam<Case> {};

TEST_P(PacemakerLiveness, DecisionsFlowAllHonest) {
  const Case c = GetParam();
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(c.n, Duration::millis(10)));
  options.pacemaker(c.kind);
  options.core("simple-view");
  options.gst(TimePoint::origin());
  options.delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)));
  options.seed(7);
  Cluster cluster(options);
  cluster.run_for(Duration::seconds(20));

  EXPECT_GE(cluster.metrics().decisions().size(), 10U)
      << c.kind << " n=" << c.n << " produced too few decisions";
  // Views advance together: no honest processor is left behind forever.
  EXPECT_GT(cluster.min_honest_view(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, PacemakerLiveness,
    ::testing::Values(Case{"round-robin", 4}, Case{"cogsworth", 4},
                      Case{"nk20", 4}, Case{"lp22", 4},
                      Case{"fever", 4}, Case{"basic-lumiere", 4},
                      Case{"lumiere", 4}, Case{"round-robin", 7},
                      Case{"cogsworth", 7}, Case{"nk20", 7},
                      Case{"lp22", 7}, Case{"fever", 7},
                      Case{"basic-lumiere", 7}, Case{"lumiere", 7}),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name = info.param.kind;
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_n" + std::to_string(info.param.n);
    });

TEST(PacemakerLivenessEdge, LumiereSurvivesJitteryNetwork) {
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(4, Duration::millis(10)));
  options.pacemaker("lumiere");
  options.delay(std::make_shared<sim::UniformDelay>(Duration::micros(100), Duration::millis(9)));
  options.seed(21);
  Cluster cluster(options);
  cluster.run_for(Duration::seconds(30));
  EXPECT_GE(cluster.metrics().decisions().size(), 10U);
}

TEST(PacemakerLivenessEdge, ChainedHotStuffUnderLumiereCommits) {
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(4, Duration::millis(10), /*x=*/4));
  options.pacemaker("lumiere");
  options.core("chained-hotstuff");
  options.delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)));
  options.seed(3);
  Cluster cluster(options);
  cluster.run_for(Duration::seconds(30));
  for (const ProcessId id : cluster.honest_ids()) {
    EXPECT_GE(cluster.node(id).ledger().size(), 3U) << "node " << id << " committed too little";
  }
  // SMR safety: all ledgers prefix-consistent.
  for (const ProcessId id : cluster.honest_ids()) {
    EXPECT_TRUE(cluster.node(id).ledger().prefix_consistent_with(cluster.node(0).ledger()));
  }
}

}  // namespace
}  // namespace lumiere::runtime
