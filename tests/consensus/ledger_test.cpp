#include "consensus/ledger.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

namespace lumiere::consensus {
namespace {

QuorumCert genesis_qc() { return QuorumCert::genesis(Block::genesis().hash()); }

std::shared_ptr<const Block> make_block(const crypto::Digest& parent, View view,
                                        std::vector<std::uint8_t> payload) {
  return std::make_shared<const Block>(parent, view, std::move(payload), genesis_qc());
}

// An entry is four words: the block pointer (two), a reference to the
// block's payload and the commit time; view, hash and parent are read
// through the block instead of being copied.
static_assert(sizeof(CommittedEntry) == 32);

TEST(LedgerTest, CommitsChainInOrder) {
  Ledger ledger;
  const auto b0 = make_block(Block::genesis().hash(), 0, {0});
  const auto b1 = make_block(b0->hash(), 1, {1});
  ledger.commit(b0, TimePoint(10));
  ledger.commit(b1, TimePoint(20));
  ASSERT_EQ(ledger.size(), 2U);
  EXPECT_EQ(ledger.entries()[0].view(), 0);
  EXPECT_EQ(ledger.entries()[1].view(), 1);
  EXPECT_EQ(ledger.entries()[1].parent(), b0->hash());
  EXPECT_EQ(ledger.entries()[0].committed_at, TimePoint(10));
  // Entries reference the committed block and its payload.
  EXPECT_EQ(ledger.entries()[1].block, b1);
  EXPECT_EQ(&ledger.entries()[1].payload, &b1->payload());
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

// Appends the chain's next `count` blocks, one view apart.
void extend(Ledger& ledger, std::size_t count) {
  crypto::Digest parent = ledger.empty() ? Block::genesis().hash() : ledger.entries().back().hash();
  View view = ledger.empty() ? 0 : ledger.entries().back().view() + 1;
  for (std::size_t i = 0; i < count; ++i, ++view) {
    const auto block = make_block(parent, view, {static_cast<std::uint8_t>(view)});
    parent = block->hash();
    ledger.commit(block, TimePoint(view));
  }
}

TEST(LedgerTest, ChunkedEntriesIndexIterateAndStayPut) {
  // Enough entries to cross many storage chunks whatever their size.
  constexpr std::size_t kFirst = 2'500;
  Ledger ledger;
  extend(ledger, kFirst);
  std::vector<const CommittedEntry*> found;
  for (std::size_t i = 0; i < kFirst; ++i) {
    const CommittedEntry& entry = ledger.entries()[i];
    ASSERT_EQ(entry.view(), static_cast<View>(i));
    ASSERT_EQ(entry.committed_at, TimePoint(static_cast<std::int64_t>(i)));
    if (i > 0) {
      ASSERT_EQ(entry.parent(), ledger.entries()[i - 1].hash()) << i;
    }
    found.push_back(ledger.find(entry.hash()));
    ASSERT_EQ(found.back(), &entry);
  }
  std::size_t height = 0;
  for (const CommittedEntry& entry : ledger.entries()) {
    ASSERT_EQ(&entry, &ledger.entries()[height]) << "iteration order, height " << height;
    ++height;
  }
  EXPECT_EQ(height, ledger.size());
  EXPECT_EQ(&ledger.entries().front(), &ledger.entries()[0]);
  EXPECT_EQ(&ledger.entries().back(), &ledger.entries()[kFirst - 1]);

  // Later commits neither move nor change what find() returned.
  const crypto::Digest first_hash = ledger.entries()[0].hash();
  extend(ledger, 10'000);
  ASSERT_EQ(ledger.size(), kFirst + 10'000);
  for (std::size_t i = 0; i < kFirst; ++i) {
    ASSERT_EQ(found[i], &ledger.entries()[i]) << "height " << i << " moved";
    ASSERT_EQ(found[i]->view(), static_cast<View>(i));
    ASSERT_EQ(ledger.find(found[i]->hash()), found[i]);
  }
  EXPECT_EQ(found[0]->hash(), first_hash);
  EXPECT_EQ(ledger.entries().back().view(), static_cast<View>(kFirst + 10'000 - 1));
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
