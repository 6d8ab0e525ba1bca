#include "consensus/simple_view_core.h"

#include <gtest/gtest.h>

#include "testutil/core_harness.h"

namespace lumiere::consensus {
namespace {

using Harness = testutil::CoreHarness<SimpleViewCore>;

TEST(SimpleViewCoreTest, HonestViewProducesQcForAll) {
  Harness h(4);
  h.enter_view_all(0);
  EXPECT_TRUE(h.all_saw_qc(0));
  EXPECT_EQ(h.node(0).qcs_formed.size(), 1U) << "leader of view 0 is p0";
  EXPECT_EQ(h.node(1).qcs_formed.size(), 0U);
}

TEST(SimpleViewCoreTest, SuccessiveViewsChainHighQc) {
  Harness h(4);
  for (View v = 0; v < 8; ++v) h.enter_view_all(v);
  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_EQ(h.core(id).high_qc().view(), 7);
  }
}

TEST(SimpleViewCoreTest, QcCarriesQuorumSignatures) {
  Harness h(7);
  h.enter_view_all(0);
  ASSERT_FALSE(h.node(0).qcs_formed.empty());
  const QuorumCert& qc = h.node(0).qcs_formed[0];
  EXPECT_GE(qc.sig().signer_count(), h.params().quorum());
  EXPECT_TRUE(qc.verify(h.auth_view(), h.params()));
}

TEST(SimpleViewCoreTest, LateEntrantVotesFromBufferedProposal) {
  Harness h(4);
  // Only 3 of 4 enter view 0: quorum = 3 still completes.
  h.enter_view(0, 0);
  h.enter_view(1, 0);
  h.enter_view(2, 0);
  h.settle();
  EXPECT_TRUE(h.all_saw_qc(0)) << "QC broadcast reaches even the laggard";
}

TEST(SimpleViewCoreTest, NoQcWithoutQuorum) {
  Harness h(4);
  // Only 2 of 4 (= f+1) enter the view: no quorum, no QC.
  h.enter_view(0, 0);
  h.enter_view(1, 0);
  h.settle();
  EXPECT_FALSE(h.all_saw_qc(0));
  EXPECT_TRUE(h.node(0).qcs_formed.empty());
}

TEST(SimpleViewCoreTest, ViewsAreMonotoneAndIdempotent) {
  Harness h(4);
  h.enter_view_all(3);
  h.enter_view_all(3);  // duplicate: no double proposal
  h.enter_view_all(1);  // regression attempt: ignored
  EXPECT_EQ(h.core(0).current_view(), 3);
  h.settle();
  // Exactly one QC for view 3 at the leader (p3).
  EXPECT_EQ(h.node(3).qcs_formed.size(), 1U);
}

TEST(SimpleViewCoreTest, VotesOnlyOncePerView) {
  Harness h(4);
  h.enter_view_all(0);
  EXPECT_EQ(h.core(1).last_voted_view(), 0);
  // Re-delivering the proposal must not produce another vote (the vote
  // aggregator would reject the duplicate share anyway; the core-side
  // guard is last_voted_view).
  h.enter_view_all(0);
  EXPECT_EQ(h.core(1).last_voted_view(), 0);
}

TEST(SimpleViewCoreTest, IgnoresProposalFromNonLeader) {
  Harness h(4);
  // p1 crafts a proposal for view 0 (whose leader is p0).
  const QuorumCert genesis = QuorumCert::genesis(Block::genesis().hash());
  auto bogus = std::make_shared<ProposalMsg>(Block(0, {1}, genesis));
  h.network().send(1, 2, bogus);
  h.enter_view(2, 0);
  h.settle();
  EXPECT_EQ(h.core(2).last_voted_view(), -1) << "no vote for an illegitimate proposer";
}

TEST(SimpleViewCoreTest, DeadlineForfeitsQc) {
  // may_form_qc == false: the leader must never produce a QC.
  testutil::CoreHarness<SimpleViewCore> h(4, Duration::micros(10),
                                          [](View) { return false; });
  h.enter_view_all(0);
  EXPECT_TRUE(h.node(0).qcs_formed.empty());
  EXPECT_FALSE(h.all_saw_qc(0));
}

TEST(SimpleViewCoreTest, SkippedViewsStillWork) {
  Harness h(4);
  h.enter_view_all(0);
  h.enter_view_all(5);  // views 1-4 skipped entirely
  EXPECT_TRUE(h.all_saw_qc(5));
  for (ProcessId id = 0; id < 4; ++id) EXPECT_EQ(h.core(id).high_qc().view(), 5);
}

/// Parametrized sweep: (diamond-1) holds across cluster sizes — an honest
/// view with everyone synchronized completes for all n.
class SimpleCoreSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SimpleCoreSweep, EveryViewCompletes) {
  Harness h(GetParam());
  for (View v = 0; v < 5; ++v) {
    h.enter_view_all(v);
    EXPECT_TRUE(h.all_saw_qc(v)) << "view " << v << " n=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SimpleCoreSweep, ::testing::Values(4U, 7U, 13U, 31U));

}  // namespace
}  // namespace lumiere::consensus
