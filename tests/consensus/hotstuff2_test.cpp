// HotStuff-2's rule (2-chain commit, 1-chain lock): commit/lock depth
// against the 3-chain rule, the dual proposal path (responsive vs
// Delta-fallback), and safety of the two-phase vote rule. Behavior
// shared with chained HotStuff is pinned in chained_core_test.cpp.
#include <gtest/gtest.h>

#include "consensus/chained_core.h"
#include "testutil/core_harness.h"

namespace lumiere::consensus {
namespace {

/// HotStuff-2, and chained HotStuff to compare the chain depths against.
class Harness : public testutil::CoreHarness<ChainedCore> {
 public:
  explicit Harness(std::uint32_t n) : CoreHarness(n, ChainRule::hotstuff2()) {}
};
using Chained3Harness = testutil::CoreHarness<ChainedCore>;

TEST(HotStuff2Test, TwoChainCommitsOneViewEarlierThanThreeChain) {
  // After views 0 and 1 complete, the QC for view 1 certifies block(1)
  // whose justify certifies block(0) at the consecutive view 0: HotStuff-2
  // commits block(0). The 3-chain rule still has nothing to commit.
  Harness h2(4);
  h2.enter_view_all(0);
  h2.enter_view_all(1);
  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_GE(h2.node(id).committed.size(), 1U) << "HS2 node " << id;
  }

  Chained3Harness h3(4);
  h3.enter_view_all(0);
  h3.enter_view_all(1);
  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_TRUE(h3.node(id).committed.empty()) << "3-chain node " << id;
  }
}

TEST(HotStuff2Test, CommitFrontierLeadsThreeChainByOneView) {
  Harness h2(4);
  Chained3Harness h3(4);
  for (View v = 0; v <= 10; ++v) {
    h2.enter_view_all(v);
    h3.enter_view_all(v);
  }
  EXPECT_EQ(h2.core(0).last_committed_view(), 9);
  EXPECT_EQ(h3.core(0).last_committed_view(), 8);
}

TEST(HotStuff2Test, LockIsOneChain) {
  // HotStuff-2 locks directly on any newer observed QC; the 3-phase
  // protocol lags one chain link behind.
  Harness h2(4);
  Chained3Harness h3(4);
  h2.enter_view_all(0);
  h3.enter_view_all(0);
  EXPECT_EQ(h2.core(1).locked_qc().view(), 0);
  EXPECT_EQ(h3.core(1).locked_qc().view(), -1);
  h2.enter_view_all(1);
  h3.enter_view_all(1);
  EXPECT_EQ(h2.core(1).locked_qc().view(), 1);
  EXPECT_EQ(h3.core(1).locked_qc().view(), 0);
}

TEST(HotStuff2Test, GapInViewsResumesCommitting) {
  Harness h(4);
  h.enter_view_all(0);
  h.enter_view_all(1);
  h.enter_view_all(3);  // view 2 skipped
  h.enter_view_all(4);
  for (ProcessId id = 0; id < 4; ++id) {
    ASSERT_GE(h.node(id).committed.size(), 2U);
  }
  // Views 3,4 are consecutive: block(3) commits (and block(0) before it).
  EXPECT_GE(h.core(0).last_committed_view(), 3);
}

TEST(HotStuff2Test, SteadyStateProposalsAreAllResponsive) {
  Harness h(4);
  for (View v = 0; v <= 10; ++v) h.enter_view_all(v);
  std::uint64_t responsive = 0;
  std::uint64_t fallback = 0;
  for (ProcessId id = 0; id < 4; ++id) {
    responsive += h.core(id).responsive_proposals();
    fallback += h.core(id).fallback_proposals();
  }
  // Every view's leader held the QC for the previous view (view 0 holds
  // genesis), so the Delta fallback never gated a proposal.
  EXPECT_EQ(responsive, 11U);
  EXPECT_EQ(fallback, 0U);
}

TEST(HotStuff2Test, FallbackProposalWaitsDeltaAfterFailedView) {
  Harness h(4);
  h.enter_view_all(0);
  h.enter_view_all(1);
  // View 2 fails entirely (nobody enters it). Everyone then moves to
  // view 3, whose leader lacks a QC for view 2 and must take the
  // Delta-fallback path.
  for (ProcessId id = 0; id < 4; ++id) h.enter_view(id, 3);
  h.sim().run_for(h.params().delta_cap / 2);
  EXPECT_FALSE(h.all_saw_qc(3)) << "proposed before the Delta fallback elapsed";
  h.settle();
  EXPECT_TRUE(h.all_saw_qc(3));
  EXPECT_EQ(h.core(3 % 4).fallback_proposals(), 1U);
  EXPECT_EQ(h.core(3 % 4).responsive_proposals(), 0U);
}

TEST(HotStuff2Test, ParentJustifyMismatchGetsNoVotes) {
  Harness h(4);
  for (View v = 0; v <= 2; ++v) h.enter_view_all(v);
  ASSERT_TRUE(h.all_saw_qc(2));
  // Byzantine leader of view 3 pairs a perfectly valid QC with an
  // unrelated parent. The structural vote rule must refuse it.
  QuorumCert valid_qc;
  for (const auto& qc : h.node(0).qcs_seen) {
    if (qc.view() == 2) valid_qc = qc;
  }
  ASSERT_EQ(valid_qc.view(), 2);
  const crypto::Digest bogus_parent = crypto::Sha256::hash("unrelated-parent");
  auto forged = std::make_shared<ProposalMsg>(Block(bogus_parent, 3, {1}, valid_qc));
  for (ProcessId id = 0; id < 4; ++id) h.network().send(3, id, forged);
  for (ProcessId id = 0; id < 4; ++id) {
    if (id != 3) h.enter_view(id, 3);
  }
  h.settle();
  for (ProcessId id = 0; id < 4; ++id) {
    for (const auto& qc : h.node(id).qcs_seen) {
      EXPECT_NE(qc.view(), 3) << "a structurally invalid proposal was certified";
    }
  }
}

TEST(HotStuff2Test, StaleJustifyCannotOverrideLock) {
  Harness h(4);
  for (View v = 0; v <= 4; ++v) h.enter_view_all(v);
  ASSERT_GE(h.core(2).locked_qc().view(), 3);
  // A proposal extending genesis is structurally fine (parent matches its
  // justify) but its justify is far older than the lock.
  const QuorumCert genesis = QuorumCert::genesis(Block::genesis().hash());
  auto stale = std::make_shared<ProposalMsg>(Block(Block::genesis().hash(), 5, {7}, genesis));
  h.network().send(5 % 4, 2, stale);
  h.enter_view(2, 5);
  h.settle();
  for (const auto& qc : h.node(2).qcs_seen) {
    EXPECT_NE(qc.view(), 5) << "stale-justify proposal was certified";
  }
}

TEST(HotStuff2Test, LockMovesBeforeQcSeenCanReEnterAView) {
  // qc_seen is where the pacemaker reacts to a QC, possibly by entering
  // the next view and voting on a proposal buffered for it. The 1-chain
  // lock must already cover the new QC then, or the core votes for a
  // justify older than a QC it has just seen.
  Harness h(4);
  for (View v = 0; v <= 2; ++v) h.enter_view_all(v);
  QuorumCert qc2;
  for (const auto& qc : h.node(1).qcs_seen) {
    if (qc.view() == 2) qc2 = qc;
  }
  ASSERT_EQ(qc2.view(), 2);
  // lead(4) = p0's view-4 proposal extending QC(2), buffered at p1
  // while p1 is still in view 2.
  h.core(1).on_message(0, std::make_shared<ProposalMsg>(Block(qc2.block_hash(), 4, {4}, qc2)));
  // p1 enters view 4 the moment it sees QC(3), from inside qc_seen.
  h.on_qc_seen = [&h](ProcessId id, const QuorumCert& qc) {
    if (id == 1 && qc.view() == 3) h.enter_view(1, 4);
  };
  h.enter_view_all(3);
  ASSERT_EQ(h.core(1).current_view(), 4);
  EXPECT_EQ(h.core(1).locked_qc().view(), 3);
  EXPECT_EQ(h.core(1).last_voted_view(), 3) << "voted for a justify older than its lock";
}

TEST(HotStuff2Test, ReProposalUnderSameJustifyIsVotable) {
  // The >= in the vote rule: after a failed view, the new leader may
  // re-extend the same justify the lock points to.
  Harness h(4);
  h.enter_view_all(0);
  h.enter_view_all(1);  // lock is now QC(1) everywhere
  // View 2 fails; view 3's leader re-extends QC(1). justify.view == lock.
  for (ProcessId id = 0; id < 4; ++id) h.enter_view(id, 3);
  h.settle();
  EXPECT_TRUE(h.all_saw_qc(3)) << "re-proposal under the locked justify must be votable";
}

}  // namespace
}  // namespace lumiere::consensus
