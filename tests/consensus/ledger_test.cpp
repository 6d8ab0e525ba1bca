#include "consensus/ledger.h"

#include <gtest/gtest.h>

#include <array>
#include <string>

namespace lumiere::consensus {
namespace {

QuorumCert genesis_qc() { return QuorumCert::genesis(Block::genesis().hash()); }

std::shared_ptr<const Block> make_block(const crypto::Digest& parent, View view,
                                        std::vector<std::uint8_t> payload) {
  return std::make_shared<const Block>(parent, view, std::move(payload), genesis_qc());
}

// An entry is four words: view, the block pointer (two), the payload
// view (two) and the commit time; hash and parent are read through the
// block instead of being copied.
static_assert(sizeof(CommittedEntry) <= 48);

TEST(LedgerTest, CommitsChainInOrder) {
  Ledger ledger;
  const auto b0 = make_block(Block::genesis().hash(), 0, {0});
  const auto b1 = make_block(b0->hash(), 1, {1});
  ledger.commit(b0, TimePoint(10));
  ledger.commit(b1, TimePoint(20));
  ASSERT_EQ(ledger.size(), 2U);
  EXPECT_EQ(ledger.entries()[0].view, 0);
  EXPECT_EQ(ledger.entries()[1].view, 1);
  EXPECT_EQ(ledger.entries()[1].parent(), b0->hash());
  EXPECT_EQ(ledger.entries()[0].committed_at, TimePoint(10));
  // Entries reference the committed block; the payload is a view of it.
  EXPECT_EQ(ledger.entries()[1].block, b1);
  EXPECT_EQ(ledger.entries()[1].payload.data(), b1->payload().data());
  EXPECT_EQ(ledger.entries()[1].payload.size(), 1U);
}

TEST(LedgerTest, HashAndParentReadThroughTheBlock) {
  Ledger ledger;
  const auto b0 = make_block(Block::genesis().hash(), 0, {0});
  const auto b1 = make_block(b0->hash(), 1, {1});
  ledger.commit(b0, TimePoint(10));
  ledger.commit(b1, TimePoint(20));
  for (std::size_t i = 0; i < ledger.size(); ++i) {
    const CommittedEntry& entry = ledger.entries()[i];
    EXPECT_EQ(entry.hash(), entry.block->hash()) << i;
    EXPECT_EQ(entry.parent(), entry.block->parent()) << i;
    EXPECT_EQ(&entry.hash(), &entry.block->hash()) << "a view of the block, not a copy";
  }
  EXPECT_EQ(ledger.entries()[0].parent(), Block::genesis().hash());
  EXPECT_EQ(ledger.entries()[1].hash(), b1->hash());
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

TEST(LedgerTest, FindIndexesEveryEntry) {
  constexpr View kEntries = 10'000;
  Ledger ledger;
  EXPECT_EQ(ledger.find(Block::genesis().hash()), nullptr) << "an empty ledger";
  crypto::Digest parent = Block::genesis().hash();
  for (View v = 0; v < kEntries; ++v) {
    const auto block = make_block(parent, v, {static_cast<std::uint8_t>(v)});
    parent = block->hash();
    ledger.commit(block, TimePoint(v));
  }
  for (std::size_t i = 0; i < ledger.size(); ++i) {
    const CommittedEntry& entry = ledger.entries()[i];
    ASSERT_EQ(ledger.find(entry.hash()), &entry) << "height " << i;
  }
  EXPECT_EQ(ledger.find(Block::genesis().hash()), nullptr) << "genesis is never committed";
  EXPECT_EQ(ledger.find(make_block(parent, kEntries, {})->hash()), nullptr);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(ledger.find(crypto::Sha256::hash("absent " + std::to_string(i))), nullptr);
  }
  // Digests that share an entry's leading bytes, and so its probe
  // sequence, but differ later: the full hash decides.
  for (std::size_t i = 0; i < ledger.size(); i += 97) {
    for (const std::size_t byte : {8U, 31U}) {
      std::array<std::uint8_t, crypto::Digest::kSize> bytes = ledger.entries()[i].hash().bytes();
      bytes[byte] ^= 0x01;
      const crypto::Digest near(bytes);
      ASSERT_EQ(near.prefix64(), ledger.entries()[i].hash().prefix64());
      EXPECT_EQ(ledger.find(near), nullptr) << "height " << i << ", byte " << byte;
    }
  }
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
