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

  /// Starts and enters epoch 0 through an EC (own share + two foreign).
  void enter_epoch_zero() {
    start();
    harness_.run_to(TimePoint(Duration::millis(10).ticks()));
    harness_.inject_epoch_msg(1, 0);
    harness_.inject_epoch_msg(2, 0);
    harness_.settle();
    ASSERT_EQ(pm_->current_view(), 0);
  }

  /// The first initial view of epoch 0 this node leads, or -1.
  [[nodiscard]] View first_led_view() const {
    for (View v = 0; v < pm_->math().views_per_epoch(); v += 2) {
      if (pm_->leader_of(v) == harness_.self()) return v;
    }
    return -1;
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

TEST_F(LumiereUnitTest, UnparkWithinDeltaSendsNoEpochMessage) {
  // Algorithm 1 line 11: the epoch message goes out only "if local clock
  // is still paused time Delta after pausing". A QC for the parked view
  // that lands inside the wait releases the pause, so the heavy exchange
  // never starts.
  start();
  ASSERT_TRUE(pm_->parked());
  harness_.run_to(TimePoint(Duration::millis(5).ticks()));  // half of Delta
  harness_.inject_qc(0);
  harness_.settle();
  EXPECT_FALSE(pm_->parked());
  harness_.run_to(TimePoint(Duration::millis(30).ticks()));  // well past Delta
  EXPECT_EQ(harness_.sent_count(pacemaker::kEpochViewMsg), 0U);
  EXPECT_EQ(pm_->epoch_msgs_sent(), 0U);
  EXPECT_EQ(pm_->current_view(), 1);
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
  const View led = first_led_view();
  ASSERT_GE(led, 0);
  EXPECT_FALSE(pm_->may_propose(led)) << "proposal gated until the VC is sent";
  harness_.inject_view_msg(1, led);
  EXPECT_EQ(pm_->vcs_formed(), 0U) << "one share is not f+1";
  harness_.inject_view_msg(2, led);
  // The VC forms at the f+1-th share: the deadline anchor and the
  // proposal poke are taken now, the copies leave at the end of the
  // instant.
  EXPECT_EQ(pm_->vcs_formed(), 1U);
  EXPECT_TRUE(pm_->may_propose(led));
  ASSERT_FALSE(harness_.pokes().empty());
  EXPECT_EQ(harness_.pokes().back(), led);
  EXPECT_EQ(harness_.sent_count(pacemaker::kVcMsg), 0U);
  harness_.settle();
  // Processes 1 and 2 sent view-led messages, so they are in view >= led
  // and the VC could not move them (line 36); 3 is unheard, and this
  // leader is still parked below led.
  EXPECT_EQ(harness_.sent_to(pacemaker::kVcMsg, 1), 0U);
  EXPECT_EQ(harness_.sent_to(pacemaker::kVcMsg, 2), 0U);
  EXPECT_EQ(harness_.sent_to(pacemaker::kVcMsg, 3), 1U);
  EXPECT_EQ(harness_.sent_to(pacemaker::kVcMsg, 0), 1U);
  EXPECT_EQ(harness_.sent_count(pacemaker::kVcMsg), 2U) << "no broadcast, no other copy";
  EXPECT_TRUE(pm_->may_form_qc(led)) << "deadline window open right after VC";
}

TEST_F(LumiereUnitTest, SharesRidingNewViewsFormTheVcAndSkipItsCopies) {
  // On a chained core a replica's view-v share rides its NewView(v) to
  // lead(v): it counts toward the VC as that replica's view message, and
  // the VC skips that replica as it skips a ViewMsg sender.
  start();
  const View led = first_led_view();
  ASSERT_GE(led, 0);
  harness_.inject_new_view(3, led, /*share=*/false);
  harness_.inject_new_view(1, led);
  EXPECT_EQ(pm_->vcs_formed(), 0U) << "a bare NewView is no view message";
  harness_.inject_new_view(2, led);
  EXPECT_EQ(pm_->vcs_formed(), 1U);
  EXPECT_TRUE(pm_->may_propose(led));
  harness_.settle();
  EXPECT_EQ(harness_.sent_to(pacemaker::kVcMsg, 1), 0U);
  EXPECT_EQ(harness_.sent_to(pacemaker::kVcMsg, 2), 0U);
  EXPECT_EQ(harness_.sent_to(pacemaker::kVcMsg, 3), 1U) << "its NewView carried no share";
  EXPECT_EQ(harness_.sent_to(pacemaker::kVcMsg, 0), 1U);
}

TEST_F(LumiereUnitTest, ViewMessagesOfTheFormingInstantSkipTheVc) {
  start();
  const View led = first_led_view();
  ASSERT_GE(led, 0);
  // 3's view message arrives at the instant the VC forms, after the
  // f+1-th share: it is heard before the copies leave.
  harness_.inject_view_msg(1, led);
  harness_.inject_view_msg(2, led);
  harness_.inject_view_msg(3, led);
  harness_.settle();
  EXPECT_EQ(pm_->vcs_formed(), 1U);
  EXPECT_EQ(harness_.sent_to(pacemaker::kVcMsg, 3), 0U);
  EXPECT_EQ(harness_.sent_count(pacemaker::kVcMsg), 1U) << "only the lagging leader's own copy";
}

TEST_F(LumiereUnitTest, SynchronizedLeaderSendsNoVcCopy) {
  enter_epoch_zero();
  const View led = first_led_view();
  ASSERT_GE(led, 0);
  harness_.run_to(harness_.sim().now() + pm_->math().view_time(led));
  ASSERT_EQ(pm_->current_view(), led);
  // The leader's own view-led message reached it on entry; the other
  // three arrive together, as in a synchronized cluster.
  harness_.inject_view_msg(1, led);
  harness_.inject_view_msg(2, led);
  harness_.inject_view_msg(3, led);
  harness_.settle();
  EXPECT_EQ(pm_->vcs_formed(), 1U);
  EXPECT_EQ(harness_.sent_count(pacemaker::kVcMsg), 0U) << "every copy would change nothing";
  EXPECT_TRUE(pm_->may_propose(led));
  EXPECT_TRUE(pm_->may_form_qc(led));
}

TEST_F(LumiereUnitTest, LaggingLeaderIsBumpedByItsOwnVc) {
  start();
  const View led = first_led_view();
  ASSERT_GE(led, 0);
  ASSERT_EQ(pm_->current_view(), -1);
  harness_.inject_view_msg(1, led);
  harness_.inject_view_msg(2, led);
  harness_.settle();
  // Lines 36-40: its own copy of the VC releases the boundary pause,
  // sends the catch-up view messages, bumps lc to c_led and enters led.
  EXPECT_FALSE(pm_->parked());
  EXPECT_EQ(pm_->current_view(), led);
  EXPECT_EQ(harness_.clock().reading(), pm_->math().view_time(led));
  ASSERT_FALSE(harness_.entered().empty());
  EXPECT_EQ(harness_.entered().back(), led);
}

TEST_F(LumiereUnitTest, LateSharesAfterVcNeitherReformNorResendIt) {
  start();
  const View led = first_led_view();
  ASSERT_GE(led, 0);
  harness_.inject_view_msg(1, led);
  harness_.inject_view_msg(2, led);
  harness_.settle();
  ASSERT_EQ(pm_->vcs_formed(), 1U);
  const std::size_t copies = harness_.sent_count(pacemaker::kVcMsg);
  ASSERT_EQ(harness_.sent_to(pacemaker::kVcMsg, 3), 1U);
  const std::size_t pokes = harness_.pokes().size();
  // f+1 = 2 late shares: enough for a fresh aggregator to complete, had
  // the spent one been replaced.
  harness_.inject_view_msg(3, led);
  harness_.inject_view_msg(1, led);
  harness_.settle();
  EXPECT_EQ(pm_->vcs_formed(), 1U) << "a late share re-formed the VC";
  EXPECT_EQ(harness_.sent_count(pacemaker::kVcMsg), copies) << "a late share re-sent the VC";
  EXPECT_EQ(harness_.pokes().size(), pokes) << "a late share re-poked the proposal";
  EXPECT_TRUE(pm_->may_propose(led));
  EXPECT_TRUE(pm_->may_form_qc(led)) << "the deadline anchor is the first VC's";
}

TEST_F(LumiereUnitTest, QcDeadlineExpiresAfterGammaHalfMinusTwoDelta) {
  start();
  const View led = first_led_view();
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

TEST_F(LumiereUnitTest, EntriesIntoInitialViewsAnnounceThemselves) {
  // Line 28's view message leaves with the entry (PacemakerWiring::
  // enter_view), once per initial view; non-initial entries announce
  // nothing.
  enter_epoch_zero();
  harness_.run_to(harness_.sim().now() + pm_->math().view_time(4));
  harness_.inject_qc(4);  // enters the non-initial view 5
  harness_.settle();
  ASSERT_EQ(pm_->current_view(), 5);
  EXPECT_EQ(harness_.entered(), (std::vector<View>{0, 2, 4, 5}));
  EXPECT_EQ(harness_.announced(), (std::vector<View>{0, 2, 4}));
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

TEST_F(LumiereUnitTest, ClockAheadProcessEntersTheNonInitialViewOnItsQc) {
  // A leader handed QC(v-1) alone runs ahead of the others and can form
  // QC(v) only after its clock passed c_{v+1}. Line 44 would ignore that
  // QC; v+1 has no clock entry, so the leader would never propose its
  // second view. The QC moves the process into v+1 and leaves the clock.
  enter_epoch_zero();
  const TimePoint entered(Duration::millis(10).ticks());  // lc = 0 here
  const Duration c1 = pm_->math().view_time(1);
  const Duration c2 = pm_->math().view_time(2);
  harness_.run_to(entered + (c1 + c2) / 2);
  ASSERT_EQ(pm_->current_view(), 0);
  ASSERT_GT(harness_.clock().reading(), c1);
  harness_.inject_qc(0);
  harness_.settle();
  EXPECT_EQ(pm_->current_view(), 1);
  EXPECT_EQ(harness_.clock().reading(), (c1 + c2) / 2);
  // An initial view keeps its clock entry: past c_2 the same QC for 1
  // finds the process in view 2 already and changes nothing.
  harness_.run_to(entered + c2 + Duration::millis(1));
  ASSERT_EQ(pm_->current_view(), 2);
  harness_.inject_qc(1);
  harness_.settle();
  EXPECT_EQ(pm_->current_view(), 2);
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
