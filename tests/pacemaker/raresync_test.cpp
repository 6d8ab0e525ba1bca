// RareSync: quadratic-optimal epoch synchronization *without*
// responsiveness — every view costs Gamma even on a fast network.
#include "pacemaker/raresync.h"

#include <gtest/gtest.h>

#include "runtime/cluster.h"

namespace lumiere::runtime {
namespace {

ScenarioBuilder raresync_options(std::uint32_t n, Duration delta_actual) {
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(n, Duration::millis(10)));
  options.pacemaker("raresync");
  options.delay(std::make_shared<sim::FixedDelay>(delta_actual));
  options.seed(111);
  return options;
}

TEST(RareSyncTest, LiveAllHonest) {
  Cluster cluster(raresync_options(4, Duration::millis(1)));
  cluster.run_for(Duration::seconds(20));
  EXPECT_GE(cluster.metrics().decisions().size(), 10U);
}

TEST(RareSyncTest, NotResponsive) {
  // Decisions are Gamma-paced no matter how fast the network is: the
  // defining difference from LP22 (which is responsive within epochs).
  Cluster cluster(raresync_options(4, Duration::micros(200)));
  cluster.run_for(Duration::seconds(20));
  const auto& decisions = cluster.metrics().decisions();
  ASSERT_GE(decisions.size(), 10U);
  // No two consecutive decisions closer than ~Gamma (40ms) apart.
  for (std::size_t i = 6; i < decisions.size(); ++i) {
    EXPECT_GE(decisions[i].at - decisions[i - 1].at, Duration::millis(35))
        << "RareSync must not have a responsive fast path";
  }
}

TEST(RareSyncTest, QcsDoNotAdvanceViews) {
  // Inject nothing: just compare view progress against wall clock — the
  // views track Gamma pacing exactly (after the initial EC round).
  Cluster cluster(raresync_options(4, Duration::millis(1)));
  cluster.run_for(Duration::seconds(10));
  const View reached = cluster.max_honest_view();
  // 10s / 40ms = 250 view budget; heavy syncs cost extra round trips, so
  // strictly fewer; but far above 0 and far below LP22-with-fast-QCs.
  EXPECT_GT(reached, 100);
  EXPECT_LE(reached, 250);
}

}  // namespace
}  // namespace lumiere::runtime
