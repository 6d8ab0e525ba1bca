// The (diamond-2) vote window, pinned for every core: a leader that has
// moved past view v must not assemble a QC for v from votes that arrive
// later. Without this rule, processors passing through v at *disjoint*
// times could combine into a "quorum" that never shared an interval —
// exactly what (diamond-2) rules out, and the loophole that would let
// Fever fake its way out of the Table 1 model separation (see
// tests/pacemaker/fever_test.cpp).
#include <gtest/gtest.h>

#include "consensus/chained_core.h"
#include "consensus/simple_view_core.h"
#include "testutil/core_harness.h"

namespace lumiere::consensus {
namespace {

/// n = 7 (f = 2, quorum = 5). View 1's leader proposes with only four
/// co-resident voters (one early node passed through the view before the
/// proposal landed), the leader then moves on, and the two stragglers'
/// votes arrive late. The QC for view 1 must never form.
template <typename Core>
void expect_no_late_qc(ChainRule rule = ChainRule::hotstuff()) {
  testutil::CoreHarness<Core> h(7, Duration::micros(10), nullptr, rule);
  h.enter_view_all(0);
  ASSERT_TRUE(h.all_saw_qc(0));

  // p0 flashes through view 1 (its NewView/view bookkeeping counts, but
  // it is in view 2 before any proposal can reach it)...
  h.enter_view(0, 1);
  h.enter_view(0, 2);
  // ...while the leader p1 and three replicas enter and stay.
  h.enter_view(1, 1);
  h.enter_view(2, 1);
  h.enter_view(3, 1);
  h.enter_view(4, 1);
  h.settle();
  // Four votes (p1 self + p2..p4) < 2f+1: nothing certified yet.
  ASSERT_FALSE(h.all_saw_qc(1));

  // The leader gives up on view 1.
  h.enter_view(1, 2);
  h.settle();

  // Stragglers finally reach view 1 and vote; their votes land at a
  // leader that has left the view.
  h.enter_view(5, 1);
  h.enter_view(6, 1);
  h.settle();
  for (ProcessId id = 0; id < 7; ++id) {
    for (const auto& qc : h.node(id).qcs_seen) {
      EXPECT_NE(qc.view(), 1) << "core assembled a QC from disjoint view passes (node "
                              << id << ")";
    }
  }
}

TEST(VoteWindowTest, SimpleViewCoreDropsLateVotes) { expect_no_late_qc<SimpleViewCore>(); }

TEST(VoteWindowTest, ChainedHotStuffDropsLateVotes) {
  expect_no_late_qc<ChainedCore>(ChainRule::hotstuff());
}

TEST(VoteWindowTest, HotStuff2DropsLateVotes) {
  expect_no_late_qc<ChainedCore>(ChainRule::hotstuff2());
}

/// Votes arriving while the leader is still *in* the view are aggregated
/// even when voters trickle in — (diamond-2) needs a shared interval,
/// which "leader still in v when the last vote lands" provides: every
/// voter is in a view >= v at that instant and the leader anchors v.
TEST(VoteWindowTest, StaggeredVotesWithinTheViewStillFormQc) {
  testutil::CoreHarness<SimpleViewCore> h(7);
  h.enter_view_all(0);
  h.enter_view(1, 1);  // leader proposes on entry
  h.settle();
  for (const ProcessId replica : {2U, 3U, 4U}) {
    h.enter_view(replica, 1);
    h.settle();
    EXPECT_FALSE(h.all_saw_qc(1)) << "quorum not yet reached at replica " << replica;
  }
  h.enter_view(0, 1);  // the 2f+1-th participant arrives last
  h.settle();
  EXPECT_TRUE(h.all_saw_qc(1));
}

}  // namespace
}  // namespace lumiere::consensus
