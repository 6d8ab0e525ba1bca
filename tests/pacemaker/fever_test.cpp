// Fever-specific behavior: VC formation, clock bumping, the hg_{f+1}
// invariant under a synchronized start.
#include "pacemaker/fever.h"

#include <gtest/gtest.h>

#include "adversary/behaviors.h"
#include "pacemaker/messages.h"
#include "runtime/cluster.h"
#include "testutil/pacemaker_harness.h"

namespace lumiere::runtime {
namespace {

ScenarioBuilder fever_options(std::uint32_t n, Duration delta_actual) {
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(n, Duration::millis(10)));
  options.pacemaker("fever");
  options.delay(std::make_shared<sim::FixedDelay>(delta_actual));
  options.seed(13);
  return options;
}

TEST(FeverTest, GammaDefault) {
  Cluster cluster(fever_options(4, Duration::millis(1)));
  const auto& pm = static_cast<const pacemaker::FeverPacemaker&>(cluster.node(0).pacemaker());
  EXPECT_EQ(pm.gamma(), Duration::millis(80));  // 2(x+1) Delta, x=3, tenure=2
  EXPECT_TRUE(pm.is_initial(0));
  EXPECT_FALSE(pm.is_initial(1));
}

TEST(FeverTest, TenureShrinksGammaTowardXDelta) {
  // Section 3.3 remark: more consecutive views per leader lets Gamma
  // approach (x+1) * Delta from 2(x+1) * Delta.
  const ProtocolParams params = ProtocolParams::for_n(4, Duration::millis(10));
  const Duration g2 = pacemaker::FeverPacemaker::default_gamma(params, 2);
  const Duration g3 = pacemaker::FeverPacemaker::default_gamma(params, 3);
  const Duration g5 = pacemaker::FeverPacemaker::default_gamma(params, 5);
  const Duration g10 = pacemaker::FeverPacemaker::default_gamma(params, 10);
  EXPECT_EQ(g2, Duration::millis(80));
  EXPECT_LT(g3, g2);
  EXPECT_LT(g5, g3);
  EXPECT_LT(g10, g5);
  EXPECT_GT(g10, params.delta_cap * params.x) << "Gamma stays above x * Delta";
}

class FeverTenureSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FeverTenureSweep, LiveAcrossTenures) {
  ScenarioBuilder options = fever_options(4, Duration::millis(1));
  options.fever(runtime::FeverOptions{GetParam()});
  Cluster cluster(options);
  cluster.run_for(Duration::seconds(20));
  EXPECT_GE(cluster.metrics().decisions().size(), 20U) << "tenure " << GetParam();
  // Leader tenure is respected: consecutive views share a leader.
  const auto& pm = static_cast<const pacemaker::FeverPacemaker&>(cluster.node(0).pacemaker());
  for (View v = 0; v < 40; v += GetParam()) {
    for (std::uint32_t k = 1; k < GetParam(); ++k) {
      EXPECT_EQ(pm.leader_of(v), pm.leader_of(v + k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Tenures, FeverTenureSweep, ::testing::Values(2U, 3U, 4U, 6U));

std::uint64_t vcs_formed(const Cluster& cluster) {
  std::uint64_t formed = 0;
  for (ProcessId id = 0; id < cluster.scenario().params.n; ++id) {
    formed += static_cast<const pacemaker::FeverPacemaker&>(cluster.node(id).pacemaker())
                  .vcs_formed();
  }
  return formed;
}

TEST(FeverTest, VcsFormForInitialViews) {
  // VCs form, but a leader sends each only to the processes it has not
  // heard a view-v message from, so fewer than n-1 copies leave per VC.
  Cluster cluster(fever_options(4, Duration::millis(1)));
  cluster.run_for(Duration::seconds(5));
  EXPECT_GT(vcs_formed(cluster), 0U);
  EXPECT_LT(cluster.metrics().count_for_type(pacemaker::kVcMsg), 3 * vcs_formed(cluster));
  EXPECT_GE(cluster.metrics().decisions().size(), 5U);
}

TEST(FeverTest, VcCopiesReachStaggeredReplicas) {
  // Staggered joins leave replicas below the views their leaders form
  // VCs for: those replicas get copies, and the VCs bump them.
  ScenarioBuilder options = fever_options(7, Duration::millis(1));
  options.join_stagger(Duration::seconds(2));
  options.seed(99);
  Cluster cluster(options);
  cluster.run_for(Duration::seconds(10));
  EXPECT_GT(vcs_formed(cluster), 0U);
  EXPECT_GT(cluster.metrics().count_for_type(pacemaker::kVcMsg), 0U);
  EXPECT_GE(cluster.metrics().decisions().size(), 5U);
}

TEST(FeverTest, NoEpochMessagesEver) {
  Cluster cluster(fever_options(4, Duration::millis(1)));
  cluster.run_for(Duration::seconds(5));
  EXPECT_EQ(cluster.metrics().count_for_type(pacemaker::kEpochViewMsg), 0U)
      << "Fever has no epochs";
  EXPECT_EQ(cluster.metrics().count_for_type(pacemaker::kEcMsg), 0U);
}

TEST(FeverTest, HonestGapStaysBoundedByGamma) {
  // Claim (a) of Section 3.3: hg_{f+1,t} <= Gamma for all t, given the
  // synchronized start. Sample after every simulator event.
  Cluster cluster(fever_options(4, Duration::millis(2)));
  cluster.start();
  const auto tracker = cluster.honest_gap_tracker();
  const auto& pm = static_cast<const pacemaker::FeverPacemaker&>(cluster.node(0).pacemaker());
  const Duration gamma = pm.gamma();
  const TimePoint deadline = TimePoint::origin() + Duration::seconds(5);
  while (!cluster.sim().idle() && cluster.sim().now() < deadline) {
    cluster.sim().step();
    EXPECT_LE(tracker.gap(cluster.scenario().params.f + 1), gamma)
        << "hg_{f+1} exceeded Gamma at " << cluster.sim().now();
  }
}

TEST(FeverTest, ModelViolationWithFaultsBreaksLivenessForever) {
  // The reason Fever's row of Table 1 says "Bounded Clocks": it *requires*
  // hg_{f+1} <= Gamma at the start. A desynchronized start alone is
  // survivable (see the companion test below: QC-paced clock bumps let
  // stragglers catch up), but desynchronization *combined with f faulty
  // processors* is fatal: only f+1 honest processors ever share a view,
  // one short of the 2f+1 a QC needs, and no mechanism ever closes the
  // gap — Fever produces zero decisions forever. Lumiere under the
  // identical schedule resynchronizes with one heavy epoch exchange and
  // streams decisions. The model column of Table 1 is a real liveness
  // separation, not a formality.
  ScenarioBuilder options = fever_options(7, Duration::millis(1));
  options.join_stagger(Duration::seconds(2));  // >> Gamma
  options.seed(99);
  options.behaviors(adversary::byzantine_set(
      {5, 6}, [](ProcessId) { return std::make_unique<adversary::MuteBehavior>(); }));
  Cluster fever(options);
  fever.run_for(Duration::seconds(60));
  EXPECT_EQ(fever.metrics().decisions().size(), 0U)
      << "Fever decided despite clock-assumption violation plus f faults";

  options.pacemaker("lumiere");
  Cluster lumiere(options);
  lumiere.run_for(Duration::seconds(60));
  EXPECT_GE(lumiere.metrics().decisions().size(), 100U)
      << "Lumiere must recover from the same desynchronized start";
}

TEST(FeverTest, FaultFreeDesyncSelfHealsThroughResponsiveBumps) {
  // Without faults the desynchronized start is NOT fatal to Fever: QCs
  // form at the slowest honest processor's pace, and every QC bumps the
  // stragglers a full Gamma forward for only a few deltas of real time,
  // so the pack catches the most advanced clock and stays caught.
  ScenarioBuilder options = fever_options(7, Duration::millis(1));
  options.join_stagger(Duration::seconds(2));
  options.seed(99);
  Cluster cluster(options);
  cluster.run_for(Duration::seconds(60));
  EXPECT_GE(cluster.metrics().decisions().size(), 1000U);
  EXPECT_LE(cluster.honest_gap_tracker().gap(3),
            static_cast<const pacemaker::FeverPacemaker&>(cluster.node(0).pacemaker()).gamma())
      << "the pack failed to catch the most advanced clock";
}

TEST(FeverTest, ResponsivenessScalesWithDelta) {
  // Decisions should be ~3 delta apart (x = 3), not Gamma apart, when the
  // network is fast.
  Cluster fast(fever_options(4, Duration::micros(200)));
  fast.run_for(Duration::seconds(5));
  const auto gap = fast.metrics().max_decision_gap(TimePoint::origin(), /*warmup=*/4);
  ASSERT_TRUE(gap.has_value());
  EXPECT_LT(*gap, Duration::millis(80)) << "steady-state gaps must beat one Gamma";
}

// The VC send rule on one Fever instance (n = 4, f = 1, tenure 2: this
// node, id 0, leads views 0, 1, 8 and 9).
class FeverVcTest : public ::testing::Test {
 protected:
  FeverVcTest()
      : harness_(4, /*self=*/0),
        pm_(harness_.params(), harness_.self(), harness_.signer(), harness_.wiring(),
            Duration::zero(), 2) {
    harness_.attach(&pm_);
    // The clock enters view 0; the view-0 message to itself arrives.
    pm_.start();
    harness_.settle();
  }

  static constexpr View kLed = 8;

  testutil::PacemakerHarness harness_;
  pacemaker::FeverPacemaker pm_;
};

TEST_F(FeverVcTest, VcReachesOnlyUnheardProcesses) {
  ASSERT_EQ(pm_.current_view(), 0);
  ASSERT_EQ(pm_.leader_of(kLed), harness_.self());
  harness_.inject_view_msg(1, kLed);
  harness_.inject_view_msg(2, kLed);
  EXPECT_EQ(pm_.vcs_formed(), 1U);
  EXPECT_EQ(harness_.sent_count(pacemaker::kVcMsg), 0U) << "copies leave at the end of the instant";
  harness_.settle();
  EXPECT_EQ(harness_.sent_to(pacemaker::kVcMsg, 1), 0U);
  EXPECT_EQ(harness_.sent_to(pacemaker::kVcMsg, 2), 0U);
  EXPECT_EQ(harness_.sent_to(pacemaker::kVcMsg, 3), 1U);
  EXPECT_EQ(harness_.sent_to(pacemaker::kVcMsg, 0), 1U) << "this leader is still in view 0";
  EXPECT_EQ(harness_.sent_count(pacemaker::kVcMsg), 2U);
}

TEST_F(FeverVcTest, SharesRidingNewViewsFormTheVcAndSkipItsCopies) {
  // A view share riding a NewView is its sender's view message: it
  // counts toward the VC, and the VC skips its sender.
  harness_.inject_new_view(1, kLed);
  harness_.inject_new_view(3, kLed, /*share=*/false);
  EXPECT_EQ(pm_.vcs_formed(), 0U) << "a bare NewView is no view message";
  harness_.inject_new_view(2, kLed);
  EXPECT_EQ(pm_.vcs_formed(), 1U);
  harness_.settle();
  EXPECT_EQ(harness_.sent_to(pacemaker::kVcMsg, 1), 0U);
  EXPECT_EQ(harness_.sent_to(pacemaker::kVcMsg, 2), 0U);
  EXPECT_EQ(harness_.sent_to(pacemaker::kVcMsg, 3), 1U) << "its NewView carried no share";
  EXPECT_EQ(harness_.sent_to(pacemaker::kVcMsg, 0), 1U) << "this leader is still in view 0";
}

TEST_F(FeverVcTest, SynchronizedLeaderSendsNoVcCopy) {
  // Its own view-0 share is in; three more arrive together. The VC forms
  // at the first of them, and the other two are heard before the copies
  // would leave.
  harness_.inject_view_msg(1, 0);
  harness_.inject_view_msg(2, 0);
  harness_.inject_view_msg(3, 0);
  harness_.settle();
  EXPECT_EQ(pm_.vcs_formed(), 1U);
  EXPECT_EQ(harness_.sent_count(pacemaker::kVcMsg), 0U);
  EXPECT_EQ(pm_.current_view(), 0);
}

TEST_F(FeverVcTest, LaggingLeaderIsBumpedByItsOwnVc) {
  harness_.inject_view_msg(1, kLed);
  harness_.inject_view_msg(2, kLed);
  harness_.settle();
  // Its own copy bumps lc to c_8, and the exact landing enters view 8.
  EXPECT_EQ(pm_.current_view(), kLed);
  EXPECT_EQ(harness_.clock().reading(), pm_.view_time(kLed));
  ASSERT_FALSE(harness_.entered().empty());
  EXPECT_EQ(harness_.entered().back(), kLed);
}

TEST_F(FeverVcTest, LateSharesAfterVcNeitherReformNorResendIt) {
  harness_.inject_view_msg(1, kLed);
  harness_.inject_view_msg(2, kLed);
  harness_.settle();
  ASSERT_EQ(pm_.vcs_formed(), 1U);
  const std::size_t copies = harness_.sent_count(pacemaker::kVcMsg);
  ASSERT_EQ(copies, 2U);
  harness_.inject_view_msg(3, kLed);
  harness_.inject_view_msg(1, kLed);
  harness_.settle();
  EXPECT_EQ(pm_.vcs_formed(), 1U) << "a late share re-formed the VC";
  EXPECT_EQ(harness_.sent_count(pacemaker::kVcMsg), copies) << "a late share re-sent the VC";
}

}  // namespace
}  // namespace lumiere::runtime
