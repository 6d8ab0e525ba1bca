// ChainedCore behavior shared by both chain rules (chained HotStuff's
// 3-chain, HotStuff-2's 2-chain): the happy path, the consecutive-view
// commit rule, edge cases beyond it, and the per-view stale-block cap.
// Rule-specific behavior lives in hotstuff_test.cpp / hotstuff2_test.cpp.
#include "consensus/chained_core.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "consensus/request_tag.h"
#include "ser/serializer.h"
#include "testutil/core_harness.h"

namespace lumiere::consensus {
namespace {

using Harness = testutil::CoreHarness<ChainedCore>;

struct RuleCase {
  const char* name;
  ChainRule rule;
  /// Blocks every node commits over views 0..6 (the size sweep bound).
  std::size_t min_commits_in_seven_views;
};

void PrintTo(const RuleCase& rule_case, std::ostream* os) { *os << rule_case.name; }

const RuleCase kRules[] = {{"ChainedHotStuff", ChainRule::hotstuff(), 3},
                           {"HotStuff2", ChainRule::hotstuff2(), 4}};

class ChainedCoreTest : public ::testing::TestWithParam<RuleCase> {
 protected:
  [[nodiscard]] ChainRule rule() const { return GetParam().rule; }
};

TEST_P(ChainedCoreTest, ViewsProduceQcs) {
  Harness h(4, rule());
  h.enter_view_all(0);
  EXPECT_TRUE(h.all_saw_qc(0));
}

TEST_P(ChainedCoreTest, LedgersPrefixConsistent) {
  Harness h(7, rule());
  for (View v = 0; v <= 12; ++v) h.enter_view_all(v);
  const auto& reference = h.node(0).committed;
  ASSERT_FALSE(reference.empty());
  for (ProcessId id = 1; id < 7; ++id) {
    const auto& log = h.node(id).committed;
    const std::size_t common = std::min(log.size(), reference.size());
    for (std::size_t i = 0; i < common; ++i) {
      EXPECT_EQ(log[i], reference[i]) << "divergence at node " << id << " index " << i;
    }
  }
}

TEST_P(ChainedCoreTest, NoCommitWithoutConsecutiveViews) {
  Harness h(4, rule());
  // Even-only views: every justify gap is 2, so no chain of consecutive
  // views ever forms, whatever its depth.
  for (View v = 0; v <= 8; v += 2) h.enter_view_all(v);
  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_TRUE(h.node(id).committed.empty())
        << rule().depth << "-chain commit requires consecutive views";
  }
}

TEST_P(ChainedCoreTest, DuplicateVotesCannotInflateQuorum) {
  Harness h(4, rule());
  // Run view 0 normally; the aggregator was consumed when the QC formed,
  // so later traffic for view 0 must be a clean no-op at the leader.
  h.enter_view_all(0);
  ASSERT_TRUE(h.all_saw_qc(0));
  const std::size_t qcs_before = h.node(0).qcs_formed.size();
  h.enter_view_all(1);
  EXPECT_EQ(h.node(0).qcs_formed.size(), qcs_before);
}

TEST_P(ChainedCoreTest, LateProposalForPastViewIgnored) {
  Harness h(4, rule());
  h.enter_view_all(0);
  h.enter_view_all(1);
  h.enter_view_all(2);
  // A proposal for view 0 arriving now must not trigger votes.
  const QuorumCert genesis = QuorumCert::genesis(Block::genesis().hash());
  auto late = std::make_shared<ProposalMsg>(Block(Block::genesis().hash(), 0, {9}, genesis));
  h.network().send(0, 1, late);
  h.settle();
  EXPECT_EQ(h.core(1).current_view(), 2);
}

TEST_P(ChainedCoreTest, HighQcAdoptedFromNewViewMessages) {
  Harness h(4, rule());
  for (View v = 0; v <= 2; ++v) h.enter_view_all(v);
  // A new leader (view 3 -> p3) must propose extending the highest QC.
  h.enter_view_all(3);
  EXPECT_GE(h.core(3).high_qc().view(), 2);
  h.enter_view_all(4);
  // Proposals keep chaining: commits advance.
  EXPECT_GE(h.core(0).last_committed_view(), 1);
}

TEST_P(ChainedCoreTest, JustifyQcInsideProposalPropagatesState) {
  Harness h(4, rule());
  h.enter_view_all(0);
  // Every node learns QC(0) at the latest from view 1's proposal justify.
  h.enter_view_all(1);
  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_GE(h.core(id).high_qc().view(), 0);
  }
}

TEST_P(ChainedCoreTest, LocksAdvanceMonotonically) {
  Harness h(4, rule());
  View last_lock = -1;
  for (View v = 0; v <= 8; ++v) {
    h.enter_view_all(v);
    EXPECT_GE(h.core(2).locked_qc().view(), last_lock);
    last_lock = h.core(2).locked_qc().view();
  }
  EXPECT_GT(last_lock, 0);
}

TEST_P(ChainedCoreTest, StaleBlockCapAdmitsEquivocatedVariantsUpToTheLimit) {
  Harness h(4, rule());
  h.enter_view_all(0);
  h.enter_view_all(1);
  QuorumCert qc1;
  for (const auto& qc : h.node(2).qcs_seen) {
    if (qc.view() == 1) qc1 = qc;
  }
  ASSERT_EQ(qc1.view(), 1);
  // Node 2 moves on to view 5; view 3 is now past but above the commit
  // horizon, so verified blocks for it are still stored (never voted).
  h.enter_view(2, 5);
  ASSERT_LT(h.core(2).last_committed_view(), 3);
  const ProcessId leader3 = 3;
  const auto deliver = [&](std::uint8_t tag) {
    Block block(qc1.block_hash(), 3, {tag}, qc1);
    const crypto::Digest hash = block.hash();
    h.core(2).on_message(leader3, std::make_shared<ProposalMsg>(std::move(block)));
    return h.core(2).block_store().contains(hash);
  };

  // Both variants of an equivocated view 3 enter the store.
  EXPECT_TRUE(deliver(1));
  EXPECT_TRUE(deliver(2));
  // Re-delivering a stored block does not consume a slot...
  EXPECT_TRUE(deliver(1));
  EXPECT_TRUE(deliver(2));
  // ...so the cap still admits further distinct blocks up to the limit,
  for (std::uint8_t tag = 3; tag <= ChainedCore::kMaxStaleBlocksPerView; ++tag) {
    EXPECT_TRUE(deliver(tag)) << "distinct block " << int{tag};
  }
  // and drops the next distinct block for the same past view.
  EXPECT_FALSE(deliver(ChainedCore::kMaxStaleBlocksPerView + 1));
  // Another past view has its own budget.
  Block other(qc1.block_hash(), 4, {1}, qc1);
  const crypto::Digest other_hash = other.hash();
  h.core(2).on_message(0, std::make_shared<ProposalMsg>(std::move(other)));
  EXPECT_TRUE(h.core(2).block_store().contains(other_hash));
}

// ---- request forwarding: the exclusion rule -------------------------

/// A batch of tagged requests (client 7) with the given seqs.
std::vector<std::uint8_t> request_batch(std::initializer_list<std::uint64_t> seqs) {
  ser::Writer batch;
  for (const std::uint64_t seq : seqs) {
    ser::Writer command;
    command.u8(kRequestMagic);
    command.u32(7);
    command.u64(seq);
    batch.bytes(command.data());
  }
  return std::move(batch).take();
}

struct Injected {
  std::size_t votes = 0;     ///< honest votes for the scripted proposal
  View holder = -1;          ///< view of the chain block carrying seq 0
  View committed = -1;       ///< an honest replica's last committed view
};

/// Runs views 0..last-1 on n = 4 with forwarding on, node 1 forwarding
/// request seq 0 to lead(0) (HotStuff-2's responsive lead(0) proposes
/// first, so seq 0 reaches block 1 through the relay). Then lead(last),
/// scripted by the test instead of its core, proposes `payload` on the
/// highest QC; counts the other (honest) replicas' votes for it.
Injected inject_proposal(ChainRule rule, View last, const std::vector<std::uint8_t>& payload) {
  std::vector<std::pair<ProcessId, crypto::Digest>> votes;
  // Committed blocks leave the store: keep them here for the search below.
  std::vector<std::vector<std::shared_ptr<const Block>>> committed(4);
  const auto wire = [&votes, &committed](ProcessId id, CoreCallbacks& cb) {
    cb.decided = [&committed, id, inner = cb.decided](const std::shared_ptr<const Block>& b) {
      committed[id].push_back(b);
      inner(b);
    };
    cb.send = [&votes, id, inner = cb.send](ProcessId to, MessagePtr msg) {
      if (msg->type_id() == kVote) {
        votes.emplace_back(id, static_cast<const VoteMsg&>(*msg).block_hash());
      }
      inner(to, std::move(msg));
    };
    cb.forwarding.attach = [id](View v) {
      return id == 1 && v == 0 ? request_batch({0}) : std::vector<std::uint8_t>{};
    };
  };
  Harness h(4, Duration::micros(10), nullptr, rule, wire);
  for (View v = 0; v < last; ++v) h.enter_view_all(v);
  const auto leader = static_cast<ProcessId>(last % 4);
  const ProcessId honest = (leader + 1) % 4;
  Injected result;
  result.committed = h.core(honest).last_committed_view();
  for (ProcessId id = 0; id < 4; ++id) {
    if (id != leader) h.enter_view(id, last);
  }
  h.settle();
  const QuorumCert justify = h.core(honest).high_qc();
  const BlockStore& store = h.core(honest).block_store();
  std::vector<std::shared_ptr<const Block>> chain = committed[honest];
  for (auto b = store.get(justify.block_hash()); b != nullptr && b->view() >= 0;
       b = store.get(b->parent())) {
    chain.push_back(b);
  }
  for (const auto& b : chain) {
    if (b->payload() == request_batch({0})) result.holder = b->view();
  }
  auto block = std::make_shared<const Block>(justify.block_hash(), last, payload, justify);
  const crypto::Digest hash = block->hash();
  const auto proposal = std::make_shared<ProposalMsg>(std::move(block));
  for (ProcessId to = 0; to < 4; ++to) {
    if (to != leader) h.network().send(leader, to, proposal);
  }
  h.settle();
  result.votes = static_cast<std::size_t>(std::count_if(
      votes.begin(), votes.end(), [&](const auto& vote) { return vote.second == hash; }));
  return result;
}

TEST_P(ChainedCoreTest, ProposalRepeatingAnUncommittedAncestorsTagGetsNoVote) {
  // At view 2 the block carrying seq 0 is an uncommitted ancestor.
  const Injected repeat = inject_proposal(rule(), 2, request_batch({0}));
  ASSERT_GE(repeat.holder, 0) << "seq 0 never reached a block";
  EXPECT_GT(repeat.holder, repeat.committed) << "its block must still be uncommitted";
  EXPECT_EQ(repeat.votes, 0U);
  EXPECT_EQ(inject_proposal(rule(), 2, request_batch({1, 1})).votes, 0U) << "a tag twice";
  EXPECT_EQ(inject_proposal(rule(), 2, request_batch({1})).votes, 3U);
}

TEST_P(ChainedCoreTest, ProposalRepeatingACommittedTagGetsNoVote) {
  // By view 4 both chain rules committed the block carrying seq 0.
  const Injected repeat = inject_proposal(rule(), 4, request_batch({0}));
  ASSERT_GE(repeat.holder, 0) << "seq 0 never reached a block";
  EXPECT_LE(repeat.holder, repeat.committed) << "its block must be committed";
  EXPECT_EQ(repeat.votes, 0U);
  EXPECT_EQ(inject_proposal(rule(), 4, request_batch({1})).votes, 3U);
}

// ---- leader-side state: pruned on view entry -------------------------

/// n = 4 with forwarding on, through 240 views: a leader keeps per-view
/// state for at most two views. Then lead(240) = p0 leaves view 240 with
/// every vote for its proposal still in flight, its HotStuff-2 Delta
/// timer unfired, and a NewView with an attachment delivered after it
/// left: none of them forms a QC or leaves state behind.
TEST_P(ChainedCoreTest, PrunedLeaderStateIgnoresLateMessages) {
  Harness h(4, Duration::micros(10), nullptr, rule(), [](ProcessId, CoreCallbacks& cb) {
    cb.forwarding.attach = [](View) { return std::vector<std::uint8_t>{}; };
  });
  const View passed = 240;
  for (View v = 0; v < passed; ++v) {
    h.enter_view_all(v);
    ASSERT_TRUE(h.all_saw_qc(v)) << "view " << v;
    for (ProcessId id = 0; id < 4; ++id) {
      ASSERT_LE(h.core(id).leader_state_views(), 2U) << "node " << id << " view " << v;
    }
  }

  for (ProcessId id = 0; id < 4; ++id) h.enter_view(id, passed);
  // Run until every replica voted for p0's proposal: the votes are in
  // flight, and p0 moves on before any lands.
  const auto all_voted = [&h, passed] {
    for (ProcessId id = 0; id < 4; ++id) {
      if (h.core(id).last_voted_view() != passed) return false;
    }
    return true;
  };
  while (!all_voted()) ASSERT_TRUE(h.sim().step()) << "no vote for view " << passed;
  for (ProcessId id = 0; id < 4; ++id) h.enter_view(id, passed + 1);
  h.settle();
  h.core(0).on_message(1, std::make_shared<NewViewMsg>(passed, h.core(1).high_qc(),
                                                        request_batch({0})));
  h.settle();

  for (ProcessId id = 0; id < 4; ++id) {
    for (const QuorumCert& qc : h.node(id).qcs_seen) {
      EXPECT_NE(qc.view(), passed) << "late votes formed a QC (node " << id << ")";
    }
  }
  EXPECT_TRUE(h.all_saw_qc(passed + 1));
  EXPECT_EQ(h.core(0).leader_state_views(), 0U) << "p0 leads neither 241 nor 242";
}

INSTANTIATE_TEST_SUITE_P(Rules, ChainedCoreTest, ::testing::ValuesIn(kRules),
                         [](const ::testing::TestParamInfo<RuleCase>& info) {
                           return std::string(info.param.name);
                         });

/// Size sweep: the pipeline commits across cluster sizes under both rules.
class ChainedCoreSweep : public ::testing::TestWithParam<std::tuple<RuleCase, std::uint32_t>> {};

TEST_P(ChainedCoreSweep, CommitsAcrossSizes) {
  const auto& [rule_case, n] = GetParam();
  Harness h(n, rule_case.rule);
  for (View v = 0; v <= 6; ++v) h.enter_view_all(v);
  for (ProcessId id = 0; id < n; ++id) {
    EXPECT_GE(h.node(id).committed.size(), rule_case.min_commits_in_seven_views);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ChainedCoreSweep,
    ::testing::Combine(::testing::ValuesIn(kRules), ::testing::Values(4U, 7U, 10U)),
    [](const ::testing::TestParamInfo<std::tuple<RuleCase, std::uint32_t>>& info) {
      return std::string(std::get<0>(info.param).name) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace lumiere::consensus
