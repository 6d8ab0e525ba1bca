// Chained HotStuff's rule (3-chain commit, 2-chain lock, safeNode vote,
// NewView-quorum gate); behavior shared with HotStuff-2 is pinned in
// chained_core_test.cpp.
#include <gtest/gtest.h>

#include "consensus/chained_core.h"
#include "testutil/core_harness.h"

namespace lumiere::consensus {
namespace {

/// The harness builds ChainedCore under ChainRule::hotstuff() by default.
using Harness = testutil::CoreHarness<ChainedCore>;

TEST(ChainedHotStuffTest, ThreeChainCommits) {
  Harness h(4);
  for (View v = 0; v <= 3; ++v) h.enter_view_all(v);
  // Views 0,1,2 form a 3-chain with consecutive views once the QC for
  // view 2 circulates (inside view 3's proposal or QC broadcast):
  // block(0) commits everywhere.
  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_GE(h.node(id).committed.size(), 1U) << "node " << id;
  }
  // All nodes committed the same first block.
  for (ProcessId id = 1; id < 4; ++id) {
    EXPECT_EQ(h.node(id).committed[0], h.node(0).committed[0]);
  }
}

TEST(ChainedHotStuffTest, CommitsAdvanceWithViews) {
  Harness h(4);
  for (View v = 0; v <= 10; ++v) h.enter_view_all(v);
  // With 11 consecutive successful views, at least 8 blocks commit.
  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_GE(h.node(id).committed.size(), 8U);
  }
  EXPECT_EQ(h.core(0).last_committed_view(), 8);
}

TEST(ChainedHotStuffTest, GapInViewsBlocksConsecutiveCommit) {
  Harness h(4);
  h.enter_view_all(0);
  h.enter_view_all(1);
  h.enter_view_all(3);  // view 2 skipped: 1 -> 3 not consecutive
  h.enter_view_all(4);
  h.enter_view_all(5);
  h.enter_view_all(6);
  // Views 3,4,5 are consecutive: block(3) commits; nothing from before
  // the gap commits until that chain forms.
  for (ProcessId id = 0; id < 4; ++id) {
    ASSERT_GE(h.node(id).committed.size(), 1U);
  }
  EXPECT_GE(h.core(0).last_committed_view(), 3);
}

TEST(ChainedHotStuffTest, LockingPreventsVoteOnStaleBranch) {
  Harness h(4);
  for (View v = 0; v <= 4; ++v) h.enter_view_all(v);
  // After view 4 the nodes are locked on at least view 2's block.
  EXPECT_GE(h.core(1).locked_qc().view(), 2);
  // A proposal extending genesis (stale branch, old justify) must not be
  // voted for.
  const QuorumCert genesis = QuorumCert::genesis(Block::genesis().hash());
  auto stale = std::make_shared<ProposalMsg>(Block(Block::genesis().hash(), 5, {7}, genesis));
  h.network().send(5 % 4, 2, stale);
  h.enter_view(2, 5);
  h.settle();
  // Node 2's last vote stays at view <= 4 (it refused the stale block).
  EXPECT_LE(h.core(2).current_view(), 5);
  bool voted_for_stale = false;
  for (const auto& qc : h.node(2).qcs_seen) {
    if (qc.view() == 5) voted_for_stale = true;
  }
  EXPECT_FALSE(voted_for_stale);
}

TEST(ChainedHotStuffTest, RequiresNewViewQuorumBeforeProposal) {
  Harness h(4);
  // Only the leader enters the view: without 2f+1 NewView messages it
  // must not propose.
  h.enter_view(0, 0);
  h.settle();
  EXPECT_FALSE(h.all_saw_qc(0));
  // Two more arrive: quorum reached, proposal and QC flow.
  h.enter_view(1, 0);
  h.enter_view(2, 0);
  h.settle();
  EXPECT_TRUE(h.all_saw_qc(0));
}

}  // namespace
}  // namespace lumiere::consensus
