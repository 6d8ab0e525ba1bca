// Unit-level tests of LumierePacemaker's Algorithm 1 mechanics via direct
// message injection (single instance; the other processors are played by
// the test through the shared PKI).
#include "core/lumiere.h"

#include <gtest/gtest.h>

#include "testutil/pacemaker_harness.h"

namespace lumiere::core {
namespace {

using testutil::PacemakerHarness;

class LumiereUnitTest : public ::testing::Test {
 protected:
  // n = 4: f = 1, TC threshold = 2, EC threshold = 3, epoch = 40 views,
  // Gamma = 2(x+2)*Delta = 100ms with x = 3, Delta = 10ms.
  LumiereUnitTest() : harness_(4, /*self=*/0) {
    LumierePacemaker::Options options;
    options.schedule_seed = 5;
    pm_ = std::make_unique<LumierePacemaker>(harness_.params(), harness_.self(),
                                             harness_.signer(), harness_.wiring(), options);
    harness_.attach(pm_.get());
  }

  void start() {
    pm_->start();
    harness_.settle();
  }

  PacemakerHarness harness_;
  std::unique_ptr<LumierePacemaker> pm_;
};

TEST_F(LumiereUnitTest, BootstrapParksAtViewZeroAndSendsEpochMsgAfterDelta) {
  start();
  // lc == c_0 == 0 and success(-1) == 0: park (pause), no epoch message
  // before the Delta-wait expires (Algorithm 1 lines 9-11).
  EXPECT_TRUE(pm_->parked());
  EXPECT_TRUE(harness_.clock().paused());
  EXPECT_EQ(harness_.sent_count(pacemaker::kEpochViewMsg), 0U);
  harness_.run_to(TimePoint(Duration::millis(10).ticks()));  // + Delta
  EXPECT_EQ(harness_.sent_count(pacemaker::kEpochViewMsg), 1U);
  EXPECT_EQ(pm_->current_view(), -1);
}

TEST_F(LumiereUnitTest, EcEntryAfterQuorumOfEpochMessages) {
  start();
  harness_.run_to(TimePoint(Duration::millis(10).ticks()));
  // Our own share arrived via broadcast self-delivery; two more make an
  // EC (2f+1 = 3). The first foreign share forms a TC (f+1 = 2) first.
  harness_.inject_epoch_msg(1, 0);
  EXPECT_TRUE(pm_->parked()) << "TC for the parked view itself does not unpark";
  harness_.inject_epoch_msg(2, 0);
  harness_.settle();
  EXPECT_FALSE(pm_->parked());
  EXPECT_FALSE(harness_.clock().paused());
  EXPECT_EQ(pm_->current_view(), 0);
  EXPECT_EQ(pm_->current_epoch(), 0);
  // Entering the initial (epoch) view sends a view message to lead(0).
  EXPECT_GE(harness_.sent_count(pacemaker::kViewMsg), 1U);
}

TEST_F(LumiereUnitTest, QcForViewAtOrAboveUnparks) {
  start();
  harness_.run_to(TimePoint(Duration::millis(10).ticks()));
  EXPECT_TRUE(pm_->parked());
  harness_.inject_qc(0);  // QC for the parked view releases the pause
  harness_.settle();
  EXPECT_FALSE(pm_->parked());
  // Line 44/48: QC for 0 bumps lc to c_1 and enters non-initial view 1.
  EXPECT_EQ(pm_->current_view(), 1);
  EXPECT_EQ(harness_.clock().reading(), Duration::millis(100));
}

TEST_F(LumiereUnitTest, VcAdmitsDirectEntry) {
  start();
  harness_.run_to(TimePoint(Duration::millis(10).ticks()));
  harness_.inject_vc(2);  // VC for initial view 2 (> parked view 0)
  harness_.settle();
  EXPECT_FALSE(pm_->parked());
  EXPECT_EQ(pm_->current_view(), 2);
  // lc bumped to c_2 = 200ms (line 39).
  EXPECT_EQ(harness_.clock().reading(), Duration::millis(200));
  // Catch-up view messages for skipped initial views [view, 2) = {0}
  // plus the entry message for 2 itself.
  EXPECT_GE(harness_.sent_count(pacemaker::kViewMsg), 2U);
}

TEST_F(LumiereUnitTest, TcForHigherEpochBumpsAndEchoes) {
  start();
  harness_.run_to(TimePoint(Duration::millis(10).ticks()));
  const View next_epoch_view = pm_->math().epoch_first_view(1);  // view 40
  // f+1 = 2 epoch-view messages for epoch 1's boundary constitute a TC.
  // Inspect the state *synchronously* (before the echoed share
  // self-delivers): line 16-21 bumped lc to c_40, moved to view 39
  // (= V(1) - 1), echoed an epoch-view message, and re-parked.
  harness_.inject_epoch_msg(1, next_epoch_view);
  harness_.inject_epoch_msg(2, next_epoch_view);
  EXPECT_EQ(pm_->current_view(), next_epoch_view - 1);
  EXPECT_EQ(pm_->current_epoch(), 0);
  EXPECT_EQ(harness_.clock().reading(), pm_->math().view_time(next_epoch_view));
  EXPECT_GE(harness_.sent_count(pacemaker::kEpochViewMsg), 2U)
      << "bootstrap share + echoed share for view 40";
  EXPECT_TRUE(pm_->parked()) << "still needs the EC (or success) for epoch 1";
  // The echoed share self-delivers: 2 foreign + own = 2f+1 distinct
  // signers = a legitimate EC. Enter epoch 1.
  harness_.settle();
  EXPECT_EQ(pm_->current_view(), next_epoch_view);
  EXPECT_EQ(pm_->current_epoch(), 1);
}

TEST_F(LumiereUnitTest, LeaderFormsVcFromSmallQuorumAndPokesProposal) {
  start();
  // Find an initial view this node leads inside epoch 0.
  View led = -1;
  for (View v = 0; v < pm_->math().views_per_epoch(); v += 2) {
    if (pm_->leader_of(v) == harness_.self()) {
      led = v;
      break;
    }
  }
  ASSERT_GE(led, 0);
  EXPECT_FALSE(pm_->may_propose(led)) << "proposal gated until the VC is sent";
  harness_.inject_view_msg(1, led);
  EXPECT_EQ(harness_.sent_count(pacemaker::kVcMsg), 0U) << "one share is not f+1";
  harness_.inject_view_msg(2, led);
  harness_.settle();
  EXPECT_EQ(harness_.sent_count(pacemaker::kVcMsg), 1U);
  EXPECT_TRUE(pm_->may_propose(led));
  ASSERT_FALSE(harness_.pokes().empty());
  EXPECT_EQ(harness_.pokes().back(), led);
  EXPECT_TRUE(pm_->may_form_qc(led)) << "deadline window open right after VC";
}

TEST_F(LumiereUnitTest, LateSharesAfterVcNeitherReformNorResendIt) {
  start();
  View led = -1;
  for (View v = 0; v < pm_->math().views_per_epoch(); v += 2) {
    if (pm_->leader_of(v) == harness_.self()) {
      led = v;
      break;
    }
  }
  ASSERT_GE(led, 0);
  harness_.inject_view_msg(1, led);
  harness_.inject_view_msg(2, led);
  harness_.settle();
  ASSERT_EQ(harness_.sent_count(pacemaker::kVcMsg), 1U);
  const std::size_t pokes = harness_.pokes().size();
  // f+1 = 2 late shares: enough for a fresh aggregator to complete, had
  // the spent one been replaced.
  harness_.inject_view_msg(3, led);
  harness_.inject_view_msg(1, led);
  harness_.settle();
  EXPECT_EQ(harness_.sent_count(pacemaker::kVcMsg), 1U) << "a late share re-sent the VC";
  EXPECT_EQ(harness_.pokes().size(), pokes) << "a late share re-poked the proposal";
  EXPECT_TRUE(pm_->may_propose(led));
  EXPECT_TRUE(pm_->may_form_qc(led)) << "the deadline anchor is the first VC's";
}

TEST_F(LumiereUnitTest, QcDeadlineExpiresAfterGammaHalfMinusTwoDelta) {
  start();
  View led = -1;
  for (View v = 0; v < pm_->math().views_per_epoch(); v += 2) {
    if (pm_->leader_of(v) == harness_.self()) {
      led = v;
      break;
    }
  }
  ASSERT_GE(led, 0);
  harness_.inject_view_msg(1, led);
  harness_.inject_view_msg(2, led);
  harness_.settle();
  ASSERT_TRUE(pm_->may_form_qc(led));
  // Budget = Gamma/2 - 2*Delta = 50 - 20 = 30ms from the VC send.
  const TimePoint vc_time = harness_.sim().now();
  harness_.run_to(vc_time + Duration::millis(30));
  EXPECT_TRUE(pm_->may_form_qc(led)) << "exactly at the deadline is still allowed";
  harness_.run_to(vc_time + Duration::millis(31));
  EXPECT_FALSE(pm_->may_form_qc(led)) << "past the deadline the view is forfeited";
}

TEST_F(LumiereUnitTest, ByzantineAloneCannotFormTcOrEc) {
  start();
  harness_.run_to(TimePoint(Duration::millis(10).ticks()));
  const View target = pm_->math().epoch_first_view(1);
  // f = 1 Byzantine processor sends its epoch-view share (even twice).
  harness_.inject_epoch_msg(1, target);
  harness_.inject_epoch_msg(1, target);
  harness_.settle();
  // No TC (f+1 = 2 distinct needed): no echo, no bump, view unchanged.
  EXPECT_EQ(pm_->current_view(), -1);
  EXPECT_EQ(harness_.sent_count(pacemaker::kEpochViewMsg), 1U) << "only the bootstrap share";
}

TEST_F(LumiereUnitTest, InvalidSharesRejected) {
  start();
  harness_.run_to(TimePoint(Duration::millis(10).ticks()));
  const View target = pm_->math().epoch_first_view(1);
  // Shares whose MAC does not verify (signed for a different view) must
  // not count toward TC/EC.
  auto bogus = std::make_shared<pacemaker::EpochViewMsg>(
      target, crypto::threshold_share(harness_.auth().signer_for(1),
                                      pacemaker::epoch_msg_statement(target + 40)));
  pm_->on_message(1, bogus);
  auto bogus2 = std::make_shared<pacemaker::EpochViewMsg>(
      target, crypto::threshold_share(harness_.auth().signer_for(2),
                                      pacemaker::epoch_msg_statement(target + 40)));
  pm_->on_message(2, bogus2);
  harness_.settle();
  EXPECT_EQ(pm_->current_view(), -1) << "forged shares must not form a TC";
}

TEST_F(LumiereUnitTest, StaleEpochSharesIgnored) {
  start();
  harness_.run_to(TimePoint(Duration::millis(10).ticks()));
  // Enter epoch 0 via EC.
  harness_.inject_epoch_msg(1, 0);
  harness_.inject_epoch_msg(2, 0);
  harness_.settle();
  ASSERT_EQ(pm_->current_epoch(), 0);
  const auto epoch_msgs_before = harness_.sent_count(pacemaker::kEpochViewMsg);
  // Epoch-view messages for an *old* boundary (view 0, epoch 0 <= current)
  // arrive late: handled by the E(v) >= epoch(p) check in handle_tc via
  // epoch filtering — and must not regress anything.
  harness_.inject_epoch_msg(3, 0);
  harness_.settle();
  EXPECT_EQ(pm_->current_epoch(), 0);
  EXPECT_EQ(pm_->current_view(), 0);
  EXPECT_EQ(harness_.sent_count(pacemaker::kEpochViewMsg), epoch_msgs_before);
}

TEST_F(LumiereUnitTest, ClockPacedEntryOfInitialViews) {
  start();
  harness_.run_to(TimePoint(Duration::millis(10).ticks()));
  harness_.inject_epoch_msg(1, 0);
  harness_.inject_epoch_msg(2, 0);
  harness_.settle();
  ASSERT_EQ(pm_->current_view(), 0);
  // With no QCs flowing, the clock paces through initial views: at
  // lc = c_2 = 200ms the processor enters view 2 (epoch still 0).
  harness_.run_to(TimePoint(Duration::millis(10).ticks()) + Duration::millis(200));
  EXPECT_EQ(pm_->current_view(), 2);
  EXPECT_EQ(pm_->current_epoch(), 0);
  harness_.run_to(TimePoint(Duration::millis(10).ticks()) + Duration::millis(400));
  EXPECT_EQ(pm_->current_view(), 4);
}

TEST_F(LumiereUnitTest, QcStreakBumpsThroughViews) {
  start();
  harness_.run_to(TimePoint(Duration::millis(10).ticks()));
  harness_.inject_epoch_msg(1, 0);
  harness_.inject_epoch_msg(2, 0);
  harness_.settle();
  // A streak of QCs moves the view at network speed and bumps the clock
  // to c_{v+1} each time (lines 44-48).
  for (View v = 0; v < 10; ++v) {
    harness_.inject_qc(v);
    harness_.settle();
    EXPECT_EQ(pm_->current_view(), v + 1);
    EXPECT_EQ(harness_.clock().reading(), pm_->math().view_time(v + 1));
  }
  // Views only move forward (Lemma 5.2): an old QC re-delivered changes
  // nothing.
  harness_.inject_qc(3);
  harness_.settle();
  EXPECT_EQ(pm_->current_view(), 10);
}

}  // namespace
}  // namespace lumiere::core
