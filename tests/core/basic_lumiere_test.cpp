// Basic Lumiere (§3.4): epoch structure + Fever bumping, no success
// criterion — every epoch pays the heavy synchronization (checked with
// LP22 and RareSync in tests/pacemaker/epoch_sync_test.cpp).
#include "core/basic_lumiere.h"

#include <gtest/gtest.h>

#include "pacemaker/messages.h"
#include "runtime/cluster.h"
#include "testutil/pacemaker_harness.h"

namespace lumiere::core {
namespace {

using runtime::Cluster;
using runtime::ScenarioBuilder;

TEST(BasicLumiereTest, EpochLayout) {
  testutil::PacemakerHarness harness(7);  // f = 2 -> epochs of 2(f+1) = 6 views
  BasicLumierePacemaker pm(harness.params(), harness.self(), harness.signer(),
                           harness.wiring(), {});
  EXPECT_EQ(pm.views_per_epoch(), 6);
  EXPECT_TRUE(pm.is_epoch_view(0));
  EXPECT_TRUE(pm.is_epoch_view(6));
  EXPECT_FALSE(pm.is_epoch_view(2)) << "initial but not an epoch view";
  EXPECT_FALSE(pm.is_epoch_view(3));
  EXPECT_EQ(pm.gamma(), Duration::millis(80));  // 2(x+1) Delta
}

TEST(BasicLumiereTest, BootstrapPausesAndBroadcasts) {
  testutil::PacemakerHarness harness(4);
  BasicLumierePacemaker pm(harness.params(), harness.self(), harness.signer(),
                           harness.wiring(), {});
  harness.attach(&pm);
  pm.start();
  harness.settle();
  // Unlike full Lumiere there is no Delta-wait: the epoch-view message
  // goes out immediately when the clock hits the boundary.
  EXPECT_TRUE(harness.clock().paused());
  EXPECT_EQ(harness.sent_count(pacemaker::kEpochViewMsg), 1U);
}

TEST(BasicLumiereTest, EcAggregatorBroadcastsCert) {
  testutil::PacemakerHarness harness(4);
  BasicLumierePacemaker pm(harness.params(), harness.self(), harness.signer(),
                           harness.wiring(), {});
  harness.attach(&pm);
  pm.start();
  harness.settle();
  // Own share (self-delivered) + two foreign = 2f+1: this processor
  // aggregates and broadcasts an EcMsg (§3.4's explicit EC broadcast),
  // then enters on its own EC.
  harness.inject_epoch_msg(1, 0);
  harness.inject_epoch_msg(2, 0);
  harness.settle();
  EXPECT_EQ(harness.sent_count(pacemaker::kEcMsg), 1U);
  EXPECT_EQ(pm.current_view(), 0);
  EXPECT_FALSE(harness.clock().paused());
}

TEST(BasicLumiereTest, ResponsiveWithinEpochs) {
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(4, Duration::millis(10)));
  options.pacemaker("basic-lumiere");
  options.seed(82);
  options.delay(std::make_shared<sim::FixedDelay>(Duration::micros(300)));
  Cluster cluster(options);
  cluster.run_for(Duration::seconds(10));
  const auto& decisions = cluster.metrics().decisions();
  ASSERT_GE(decisions.size(), 50U);
  // Consecutive in-epoch decisions spaced at network speed (~3 delta),
  // far below Gamma.
  std::size_t fast_pairs = 0;
  for (std::size_t i = 1; i < decisions.size(); ++i) {
    if (decisions[i].at - decisions[i - 1].at <= Duration::millis(2)) ++fast_pairs;
  }
  EXPECT_GT(fast_pairs, decisions.size() / 2);
}

TEST(BasicLumiereTest, VcForEpochViewRejected) {
  // §3.4: VCs exist only for initial non-epoch views. A (forged-looking)
  // VC for the epoch view must not admit entry.
  testutil::PacemakerHarness harness(4);
  BasicLumierePacemaker pm(harness.params(), harness.self(), harness.signer(),
                           harness.wiring(), {});
  harness.attach(&pm);
  pm.start();
  harness.settle();
  harness.inject_vc(0);  // view 0 is the epoch view
  harness.settle();
  EXPECT_EQ(pm.current_view(), -1) << "epoch views are entered via EC, not VC";
  EXPECT_TRUE(harness.clock().paused());
}

}  // namespace
}  // namespace lumiere::core
