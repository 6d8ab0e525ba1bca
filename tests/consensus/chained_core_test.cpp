// ChainedCore behavior shared by both chain rules (chained HotStuff's
// 3-chain, HotStuff-2's 2-chain): the happy path, the consecutive-view
// commit rule, edge cases beyond it, and the per-view stale-block cap.
// Rule-specific behavior lives in hotstuff_test.cpp / hotstuff2_test.cpp.
#include "consensus/chained_core.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "consensus/mempool.h"
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
  auto late = std::make_shared<ProposalMsg>(Block(0, {9}, genesis));
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
    Block block(3, {tag}, qc1);
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
  Block other(4, {1}, qc1);
  const crypto::Digest other_hash = other.hash();
  h.core(2).on_message(0, std::make_shared<ProposalMsg>(std::move(other)));
  EXPECT_TRUE(h.core(2).block_store().contains(other_hash));
}

// ---- request forwarding: the exclusion rule -------------------------

/// A tagged request (a bare header).
std::vector<std::uint8_t> request(std::uint32_t client, std::uint64_t seq) {
  ser::Writer command;
  command.u8(kRequestMagic);
  command.u32(client);
  command.u64(seq);
  return std::move(command).take();
}

/// A batch of tagged requests (client 7) with the given seqs.
std::vector<std::uint8_t> request_batch(std::initializer_list<std::uint64_t> seqs) {
  ser::Writer batch;
  for (const std::uint64_t seq : seqs) batch.bytes(request(7, seq));
  return std::move(batch).take();
}

/// The request tags of a payload, in order.
std::vector<RequestTag> tags_of(const std::vector<std::uint8_t>& payload) {
  std::vector<RequestTag> tags;
  for_each_command(payload, [&tags](std::span<const std::uint8_t> command) {
    if (const auto tag = request_tag(command)) tags.push_back(*tag);
  });
  return tags;
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
  auto block = std::make_shared<const Block>(last, payload, justify);
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

// ---- drain, then propose ---------------------------------------------

TEST(ChainedCoreDrainTest, NewViewsTiedWithTheQuorumsLastLandInItsBlock) {
  // n = 7, quorum 5, every NewView(1) carrying its sender's request.
  // lead(0)'s arrives early (sent as it forms QC(0)) and lead(1)'s own at
  // once; the fixed delay delivers the other five within one instant. The
  // 5th NewView (p4's) opens the quorum gate, and the two behind it (p5,
  // p6) must still make view 1's block instead of riding the relay into
  // view 2.
  constexpr std::uint32_t kN = 7;
  std::optional<std::vector<std::uint8_t>> proposed;
  Harness h(kN, Duration::micros(10), nullptr, ChainRule::hotstuff(),
            [&proposed](ProcessId id, CoreCallbacks& cb) {
              cb.forwarding.attach = [id](View v) {
                ser::Writer batch;
                if (v == 1) batch.bytes(request(100 + id, 0));
                return std::move(batch).take();
              };
              if (id != 1) return;
              cb.broadcast = [&proposed, inner = cb.broadcast](MessagePtr msg) {
                if (msg->type_id() == kProposal) {
                  const Block& block = static_cast<const ProposalMsg&>(*msg).block();
                  if (block.view() == 1) proposed = block.payload();
                }
                inner(std::move(msg));
              };
            });
  h.enter_view_all(0);
  h.enter_view_all(1);
  ASSERT_TRUE(proposed.has_value()) << "lead(1) never proposed";
  const std::vector<RequestTag> tags = tags_of(*proposed);
  EXPECT_EQ(tags.size(), kN) << "NewViews after the 2f+1-th missed the block";
  for (ProcessId id = 0; id < kN; ++id) {
    EXPECT_NE(std::find(tags.begin(), tags.end(), RequestTag{100 + id, 0}), tags.end())
        << "sender " << id << "'s request is not in view 1's block";
  }
}

TEST(ChainedCoreDrainTest, OverflowRidesTheRelayIntoTheNextBlock) {
  // n = 4, a proposal budget of five requests. After view 0, replicas
  // 1..3 each admit three requests, which ride their NewView(1)s (in
  // sender-id order) to lead(1) = p1. Its block takes five; the four it
  // cannot take must ride its NewView(2) into lead(2)'s block, so no
  // origin ever re-attaches (requeues) one.
  constexpr std::uint32_t kN = 4;
  constexpr std::size_t kBudget = 5 * (kRequestHeaderBytes + 4);
  std::vector<Mempool> pools(kN);
  std::map<View, std::vector<std::uint8_t>> committed;
  Harness h(kN, Duration::micros(10), nullptr, ChainRule::hotstuff(),
            [&pools, &committed](ProcessId id, CoreCallbacks& cb) {
              Mempool& pool = pools[id];
              cb.forwarding.attach = [&pool](View v) { return pool.attach(v); };
              cb.forwarding.proposed = [&pool](const Block& b) {
                pool.on_proposed(b.view(), b.payload());
              };
              cb.forwarding.max_batch_bytes = kBudget;
              cb.decided = [&pool, &committed, id,
                            inner = cb.decided](const std::shared_ptr<const Block>& b) {
                pool.on_commit(b->view(), b->payload());
                if (id == 0) committed[b->view()] = b->payload();
                inner(b);
              };
            });
  h.enter_view_all(0);
  for (ProcessId id = 1; id < kN; ++id) {
    for (std::uint64_t seq = 0; seq < 3; ++seq) {
      ASSERT_EQ(pools[id].add(request(100 + id, seq)), Admission::kAccepted);
    }
  }
  for (View v = 1; v <= 5; ++v) h.enter_view_all(v);

  ASSERT_TRUE(committed.contains(1) && committed.contains(2)) << "views 1 and 2 never committed";
  EXPECT_EQ(tags_of(committed.at(1)).size(), 5U) << "view 1's block should fill its budget";
  EXPECT_EQ(tags_of(committed.at(2)).size(), 4U) << "the overflow should make view 2's block";
  for (ProcessId id = 0; id < kN; ++id) {
    EXPECT_EQ(pools[id].requeued(), 0U) << "node " << id << " re-attached a request";
    EXPECT_EQ(pools[id].in_flight() + pools[id].pending(), 0U) << "node " << id;
  }
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

// ---- a leader's second view starts from its own QC ------------------

/// Every leader holds two consecutive views, as under Lumiere:
/// lead(v) = (v / 2) mod 4.
void pair_leaders(ProcessId /*id*/, PacemakerHooks& hooks) {
  hooks.leader_of = [](View v) { return static_cast<ProcessId>(v >= 0 ? (v / 2) % 4 : 0); };
}

/// The view a consensus message is about.
View view_of(const Message& msg) {
  switch (msg.type_id()) {
    case kProposal:
      return static_cast<const ProposalMsg&>(msg).block().view();
    case kVote:
      return static_cast<const VoteMsg&>(msg).view();
    case kQcAnnounce:
      return static_cast<const QcMsg&>(msg).qc().view();
    case kNewView:
      return static_cast<const NewViewMsg&>(msg).view();
    default:
      return -1;
  }
}

/// Logs every send and broadcast call of the nodes it taps, and drops
/// the messages `drop` selects.
class Traffic {
 public:
  struct Sent {
    ProcessId from;
    std::optional<ProcessId> to;  ///< nullopt: a broadcast
    MessagePtr msg;
  };

  explicit Traffic(std::function<bool(const Message&)> drop = nullptr) : drop_(std::move(drop)) {}

  void tap(ProcessId id, CoreCallbacks& cb) {
    cb.send = [this, id, inner = cb.send](ProcessId to, MessagePtr msg) {
      sent.push_back({id, to, msg});
      if (!drop_ || !drop_(*msg)) inner(to, std::move(msg));
    };
    cb.broadcast = [this, id, inner = cb.broadcast](MessagePtr msg) {
      sent.push_back({id, std::nullopt, msg});
      if (!drop_ || !drop_(*msg)) inner(std::move(msg));
    };
  }

  /// Calls that sent `type` for `view` to another node (a broadcast
  /// counts once).
  [[nodiscard]] std::size_t count(std::uint32_t type, View view) const {
    return static_cast<std::size_t>(std::count_if(sent.begin(), sent.end(), [&](const Sent& s) {
      return s.msg->type_id() == type && view_of(*s.msg) == view && s.to != s.from;
    }));
  }

  /// The justify view of the proposal for `view` (-2 if none left).
  [[nodiscard]] View justify_of(View view) const {
    for (const Sent& s : sent) {
      if (s.msg->type_id() == kProposal && view_of(*s.msg) == view) {
        return static_cast<const ProposalMsg&>(*s.msg).block().justify().view();
      }
    }
    return -2;
  }

  std::vector<Sent> sent;

 private:
  std::function<bool(const Message&)> drop_;
};

/// A pacemaker's reaction to a QC, up to view `last`: a node that sees
/// QC(v) enters v+1 (Lumiere's Algorithm 1, line 48).
void advance_on_qc(Harness& h, View last) {
  h.on_qc_seen = [&h, last](ProcessId id, const QuorumCert& qc) {
    if (qc.view() < last) h.enter_view(id, qc.view() + 1);
  };
}

TEST_P(ChainedCoreTest, OwnQcOpensTheSecondViewsGateWithoutNewViews) {
  // No NewView(1) arrives anywhere. p0 leads views 0 and 1: QC(0) is its
  // own, the highest any replica can hold, so it proposes view 1 at once.
  Traffic traffic([](const Message& m) { return m.type_id() == kNewView && view_of(m) == 1; });
  Harness h(4, Duration::micros(10), nullptr, rule(),
            [&traffic](ProcessId id, CoreCallbacks& cb) { traffic.tap(id, cb); }, pair_leaders);
  advance_on_qc(h, 1);
  h.enter_view_all(0);
  EXPECT_EQ(traffic.justify_of(1), 0);
  EXPECT_TRUE(h.all_saw_qc(1));
}

TEST(ChainedHotStuffGateTest, AnotherLeadersQcStillWaitsForNewViews) {
  // lead(v) = v mod 4: p1 holds p0's QC(0), yet without 2f+1 NewView(1)s
  // it does not propose view 1 (HotStuff-2's responsive gate would).
  Traffic traffic([](const Message& m) { return m.type_id() == kNewView && view_of(m) == 1; });
  Harness h(4, Duration::micros(10), nullptr, ChainRule::hotstuff(),
            [&traffic](ProcessId id, CoreCallbacks& cb) { traffic.tap(id, cb); });
  advance_on_qc(h, 1);
  h.enter_view_all(0);
  ASSERT_EQ(h.core(1).high_qc().view(), 0);
  EXPECT_EQ(traffic.count(kProposal, 1), 0U);
  EXPECT_FALSE(h.all_saw_qc(1));
}

TEST_P(ChainedCoreTest, EachQcIsAnnouncedOnce) {
  // Views 0..3 led by p0, p0, p1, p1. QC(0) and QC(2) ride proposals 1
  // and 3 as their justify, with no QcMsg; QC(1) (view 2 is p1's) and
  // QC(3) (view 4 is never entered) each leave as one QcMsg broadcast.
  Traffic traffic;
  Harness h(4, Duration::micros(10), nullptr, rule(),
            [&traffic](ProcessId id, CoreCallbacks& cb) { traffic.tap(id, cb); }, pair_leaders);
  advance_on_qc(h, 3);
  h.enter_view_all(0);
  ASSERT_TRUE(h.all_saw_qc(3));
  EXPECT_EQ(traffic.justify_of(1), 0);
  EXPECT_EQ(traffic.justify_of(3), 2);
  const std::size_t expected[] = {0, 1, 0, 1};
  for (View v = 0; v <= 3; ++v) {
    EXPECT_EQ(traffic.count(kQcAnnounce, v), expected[v]) << "QC(" << v << ")";
  }
}

TEST_P(ChainedCoreTest, AQcItsProposalCannotCarryIsBroadcastOnce) {
  // p0's view 1 waits behind may_propose, as a Lumiere leader bridging
  // into an initial view waits for its VC: QC(0) leaves as one QcMsg.
  // Once the gate lifts, proposal 1 carries QC(0) and no second QcMsg
  // follows.
  bool allowed = false;
  Traffic traffic;
  Harness h(4, Duration::micros(10), nullptr, rule(),
            [&traffic](ProcessId id, CoreCallbacks& cb) { traffic.tap(id, cb); },
            [&allowed](ProcessId id, PacemakerHooks& hooks) {
              pair_leaders(id, hooks);
              hooks.may_propose = [&allowed](View v) { return v != 1 || allowed; };
            });
  advance_on_qc(h, 1);
  h.enter_view_all(0);
  EXPECT_EQ(traffic.count(kQcAnnounce, 0), 1U);
  EXPECT_EQ(traffic.count(kProposal, 1), 0U);
  allowed = true;
  h.core(0).on_propose_allowed(1);
  h.settle();
  EXPECT_EQ(traffic.justify_of(1), 0);
  EXPECT_EQ(traffic.count(kQcAnnounce, 0), 1U);
  EXPECT_TRUE(h.all_saw_qc(1));
}

TEST_P(ChainedCoreTest, EntryThroughTheProposalSendsNoNewView) {
  // Views 0..3 led by p0, p0, p1, p1. Replicas enter views 1 and 3
  // through their proposals and send no NewView for them; views 0 and 2
  // they enter otherwise, and each of the three non-leaders sends one.
  Traffic traffic;
  Harness h(4, Duration::micros(10), nullptr, rule(),
            [&traffic](ProcessId id, CoreCallbacks& cb) { traffic.tap(id, cb); }, pair_leaders);
  advance_on_qc(h, 3);
  h.enter_view_all(0);
  ASSERT_TRUE(h.all_saw_qc(3));
  const std::size_t expected[] = {3, 0, 3, 0};
  for (View v = 0; v <= 3; ++v) {
    EXPECT_EQ(traffic.count(kNewView, v), expected[v]) << "NewView(" << v << ")";
  }
}

TEST_P(ChainedCoreTest, AFutureViewProposalSuppressesNoNewView) {
  // p3, in view 1, receives a proposal for view 5 from lead(5) = p2
  // whose justify (QC(1)) moves it into no view, and one for view 4 from
  // p0, which is not lead(4). Entering views 4 and 5 later, it still
  // sends NewView(4) and NewView(5).
  Traffic traffic;
  Harness h(4, Duration::micros(10), nullptr, rule(),
            [&traffic](ProcessId id, CoreCallbacks& cb) { traffic.tap(id, cb); }, pair_leaders);
  advance_on_qc(h, 1);
  h.enter_view_all(0);
  ASSERT_TRUE(h.all_saw_qc(1));
  const QuorumCert qc1 = h.core(3).high_qc();
  ASSERT_EQ(qc1.view(), 1);
  for (const auto& [from, view] : {std::pair<ProcessId, View>{2, 5}, {0, 4}}) {
    h.network().send(from, 3, std::make_shared<ProposalMsg>(Block(view, {}, qc1)));
  }
  h.settle();
  ASSERT_EQ(h.core(3).current_view(), 1);
  for (const View v : {4, 5}) {
    h.enter_view(3, v);
    h.settle();
    EXPECT_EQ(traffic.count(kNewView, v), 1U) << "NewView(" << v << ")";
  }
}

TEST_P(ChainedCoreTest, RequestsRideTheVotesIntoTheLeadersSecondBlock) {
  // Views 0 and 1 led by p0, every node admitting one request for view
  // 1. p0 proposes view 1 on its own QC(0), before a NewView(1) could
  // reach it: the others' requests ride their votes for view 0, p0's own
  // its NewView(1) to itself. Votes for view 1 (lead(2) = p1) carry none.
  Traffic traffic;
  Harness h(4, Duration::micros(10), nullptr, rule(),
            [&traffic](ProcessId id, CoreCallbacks& cb) {
              traffic.tap(id, cb);
              cb.forwarding.attach = [id](View v) {
                ser::Writer batch;
                if (v == 1) batch.bytes(request(100 + id, 0));
                return std::move(batch).take();
              };
            },
            pair_leaders);
  advance_on_qc(h, 1);
  h.enter_view_all(0);
  ASSERT_TRUE(h.all_saw_qc(1));
  EXPECT_EQ(traffic.count(kNewView, 1), 0U);
  std::optional<std::vector<std::uint8_t>> block1;
  for (const Traffic::Sent& s : traffic.sent) {
    if (s.msg->type_id() == kProposal && view_of(*s.msg) == 1) {
      block1 = static_cast<const ProposalMsg&>(*s.msg).block().payload();
    }
    if (s.msg->type_id() != kVote) continue;
    const auto& vote = static_cast<const VoteMsg&>(*s.msg);
    const bool carries = vote.view() == 0 && s.from != 0;
    EXPECT_EQ(vote.requests().empty(), !carries) << "p" << s.from << "'s vote " << vote.view();
  }
  ASSERT_TRUE(block1.has_value()) << "p0 never proposed view 1";
  const std::vector<RequestTag> tags = tags_of(*block1);
  EXPECT_EQ(tags.size(), 4U);
  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_NE(std::find(tags.begin(), tags.end(), RequestTag{100 + id, 0}), tags.end())
        << "p" << id << "'s request is not in view 1's block";
  }
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
