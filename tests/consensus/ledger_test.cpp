#include "consensus/ledger.h"

#include <gtest/gtest.h>

namespace lumiere::consensus {
namespace {

QuorumCert genesis_qc() { return QuorumCert::genesis(Block::genesis().hash()); }

std::shared_ptr<const Block> make_block(const crypto::Digest& parent, View view,
                                        std::vector<std::uint8_t> payload) {
  return std::make_shared<const Block>(parent, view, std::move(payload), genesis_qc());
}

TEST(LedgerTest, CommitsChainInOrder) {
  Ledger ledger;
  const auto b0 = make_block(Block::genesis().hash(), 0, {0});
  const auto b1 = make_block(b0->hash(), 1, {1});
  ledger.commit(b0, TimePoint(10));
  ledger.commit(b1, TimePoint(20));
  ASSERT_EQ(ledger.size(), 2U);
  EXPECT_EQ(ledger.entries()[0].view, 0);
  EXPECT_EQ(ledger.entries()[1].view, 1);
  EXPECT_EQ(ledger.entries()[1].parent, b0->hash());
  EXPECT_EQ(ledger.entries()[0].committed_at, TimePoint(10));
  // Entries reference the committed block; the payload is a view of it.
  EXPECT_EQ(ledger.entries()[1].block, b1);
  EXPECT_EQ(ledger.entries()[1].payload.data(), b1->payload().data());
  EXPECT_EQ(ledger.entries()[1].payload.size(), 1U);
}

TEST(LedgerTest, PrefixConsistency) {
  Ledger a;
  Ledger b;
  const auto b0 = make_block(Block::genesis().hash(), 0, {0});
  const auto b1 = make_block(b0->hash(), 1, {1});
  a.commit(b0, TimePoint(1));
  a.commit(b1, TimePoint(2));
  b.commit(b0, TimePoint(3));
  EXPECT_TRUE(a.prefix_consistent_with(b));
  EXPECT_TRUE(b.prefix_consistent_with(a));

  Ledger c;
  c.commit(make_block(Block::genesis().hash(), 0, {9}), TimePoint(1));
  EXPECT_FALSE(a.prefix_consistent_with(c));
}

TEST(LedgerDeathTest, RejectsBrokenChain) {
  Ledger ledger;
  const auto b0 = make_block(Block::genesis().hash(), 0, {0});
  const auto stranger = make_block(crypto::Sha256::hash("elsewhere"), 1, {1});
  ledger.commit(b0, TimePoint(1));
  EXPECT_DEATH(ledger.commit(stranger, TimePoint(2)), "chain");
}

TEST(LedgerDeathTest, RejectsNonMonotoneViews) {
  Ledger ledger;
  const auto b0 = make_block(Block::genesis().hash(), 5, {0});
  const auto b1 = make_block(b0->hash(), 5, {1});
  ledger.commit(b0, TimePoint(1));
  EXPECT_DEATH(ledger.commit(b1, TimePoint(2)), "increase");
}

}  // namespace
}  // namespace lumiere::consensus
