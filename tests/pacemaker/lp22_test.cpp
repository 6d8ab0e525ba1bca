// LP22-specific behavior: epoch structure, the QC fast path, and the
// first weakness the paper identifies (no clock bumps). The second
// (eternal epoch syncs) is checked for all epoch pacemakers in
// epoch_sync_test.cpp.
#include "pacemaker/lp22.h"

#include <gtest/gtest.h>

#include "runtime/cluster.h"

namespace lumiere::runtime {
namespace {

ScenarioBuilder lp22_options(std::uint32_t n, Duration delta_actual) {
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(n, Duration::millis(10)));
  options.pacemaker("lp22");
  options.delay(std::make_shared<sim::FixedDelay>(delta_actual));
  options.seed(5);
  return options;
}

TEST(Lp22Test, EpochMath) {
  // Direct checks of the f+1-view epoch layout on a live pacemaker.
  ScenarioBuilder options = lp22_options(7, Duration::millis(1));
  Cluster cluster(options);
  const auto& pm = static_cast<const pacemaker::Lp22Pacemaker&>(cluster.node(0).pacemaker());
  EXPECT_EQ(pm.epoch_first_view(0), 0);
  EXPECT_EQ(pm.epoch_first_view(2), 6);  // f+1 = 3 views per epoch
  EXPECT_TRUE(pm.is_epoch_view(0));
  EXPECT_TRUE(pm.is_epoch_view(3));
  EXPECT_FALSE(pm.is_epoch_view(4));
  EXPECT_EQ(pm.epoch_of(5), 1);
  EXPECT_EQ(pm.gamma(), Duration::millis(40));  // (x+1) * Delta with x=3
}

TEST(Lp22Test, QcEntryIsResponsiveWithinEpoch) {
  // With a fast network, decisions inside an epoch come at network speed
  // (entering on QCs), far faster than Gamma pacing.
  ScenarioBuilder options = lp22_options(4, Duration::micros(100));
  Cluster cluster(options);
  cluster.run_for(Duration::seconds(5));
  const auto& decisions = cluster.metrics().decisions();
  ASSERT_GE(decisions.size(), 3U);
  // Find two decisions in consecutive views within one epoch and check
  // their spacing is ~3 message delays, not Gamma = 40ms.
  bool found_fast_pair = false;
  for (std::size_t i = 1; i < decisions.size(); ++i) {
    if (decisions[i].view == decisions[i - 1].view + 1 && decisions[i].view % 2 != 0) {
      if (decisions[i].at - decisions[i - 1].at <= Duration::millis(1)) found_fast_pair = true;
    }
  }
  EXPECT_TRUE(found_fast_pair) << "within-epoch progress should be responsive";
}

TEST(Lp22Test, ClocksNeverBumpOnQc) {
  // The defining LP22 weakness: local clocks advance only in real time
  // (plus EC resets), so after a burst of fast QCs the *view* races ahead
  // of the clock — there must be instants where the current view's clock
  // time c_v exceeds the clock reading (a bumping protocol would have
  // raised the clock to c_v on entry).
  ScenarioBuilder options = lp22_options(7, Duration::micros(100));
  Cluster cluster(options);
  cluster.start();
  const auto& node = cluster.node(0);
  const auto& pm = static_cast<const pacemaker::Lp22Pacemaker&>(node.pacemaker());
  bool lag_observed = false;
  const TimePoint deadline = TimePoint::origin() + Duration::seconds(5);
  while (!cluster.sim().idle() && cluster.sim().now() < deadline && !lag_observed) {
    cluster.sim().step();
    const View v = node.current_view();
    if (v > 0 && !node.local_clock().paused() &&
        node.local_clock().reading() < pm.view_time(v)) {
      lag_observed = true;
    }
  }
  EXPECT_TRUE(lag_observed) << "QC-early entries must leave the clock behind c_v";
}

}  // namespace
}  // namespace lumiere::runtime
