#include "consensus/block.h"

#include <gtest/gtest.h>

namespace lumiere::consensus {
namespace {

QuorumCert genesis_qc() { return QuorumCert::genesis(Block::genesis().hash()); }

TEST(BlockTest, GenesisIsStable) {
  const Block& g1 = Block::genesis();
  const Block& g2 = Block::genesis();
  EXPECT_EQ(g1.hash(), g2.hash());
  EXPECT_EQ(g1.view(), -1);
  EXPECT_TRUE(g1.payload().empty());
}

TEST(BlockTest, HashBindsAllFields) {
  const Block base(Block::genesis().hash(), 1, {1, 2}, genesis_qc());
  const Block diff_view(Block::genesis().hash(), 2, {1, 2}, genesis_qc());
  const Block diff_payload(Block::genesis().hash(), 1, {1, 3}, genesis_qc());
  const Block diff_parent(crypto::Sha256::hash("other"), 1, {1, 2}, genesis_qc());
  EXPECT_NE(base.hash(), diff_view.hash());
  EXPECT_NE(base.hash(), diff_payload.hash());
  EXPECT_NE(base.hash(), diff_parent.hash());
}

TEST(BlockTest, SerializeRoundTrip) {
  const Block block(Block::genesis().hash(), 7, {9, 8, 7}, genesis_qc());
  ser::Writer w;
  block.serialize(w);
  ser::Reader r(std::span<const std::uint8_t>(w.data().data(), w.size()));
  const auto out = Block::deserialize(r);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->hash(), block.hash());
  EXPECT_EQ(out->view(), 7);
}

/// A block in its own shared allocation, as every holder keeps it.
std::shared_ptr<const Block> make_block(const crypto::Digest& parent, View view,
                                        std::vector<std::uint8_t> payload) {
  return std::make_shared<const Block>(parent, view, std::move(payload), genesis_qc());
}

TEST(BlockStoreTest, InsertAndGet) {
  BlockStore store;
  EXPECT_TRUE(store.contains(Block::genesis().hash()));
  EXPECT_EQ(store.get(Block::genesis().hash()).get(), &Block::genesis())
      << "every store shares the one genesis allocation";
  const auto b = make_block(Block::genesis().hash(), 0, {});
  const auto ptr = store.insert(b);
  EXPECT_EQ(ptr, b) << "the store keeps the inserted allocation, not a copy";
  EXPECT_TRUE(store.contains(b->hash()));
  EXPECT_EQ(store.get(b->hash()), ptr);
  // Idempotent insert returns the first allocation stored for the hash.
  EXPECT_EQ(store.insert(make_block(Block::genesis().hash(), 0, {})), ptr);
  EXPECT_EQ(store.size(), 2U);
}

TEST(BlockStoreTest, AncestorWalk) {
  BlockStore store;
  const auto b0 = make_block(Block::genesis().hash(), 0, {0});
  const auto b1 = make_block(b0->hash(), 1, {1});
  const auto b2 = make_block(b1->hash(), 2, {2});
  store.insert(b0);
  store.insert(b1);
  store.insert(b2);
  EXPECT_EQ(store.ancestor(b2->hash(), 0)->hash(), b2->hash());
  EXPECT_EQ(store.ancestor(b2->hash(), 1)->hash(), b1->hash());
  EXPECT_EQ(store.ancestor(b2->hash(), 2)->hash(), b0->hash());
  EXPECT_EQ(store.ancestor(b2->hash(), 3)->hash(), Block::genesis().hash());
}

TEST(BlockStoreTest, ExtendsFollowsChain) {
  BlockStore store;
  const auto b0 = make_block(Block::genesis().hash(), 0, {0});
  const auto b1 = make_block(b0->hash(), 1, {1});
  const auto fork = make_block(Block::genesis().hash(), 1, {9});
  store.insert(b0);
  store.insert(b1);
  store.insert(fork);
  EXPECT_TRUE(store.extends(b1->hash(), b0->hash()));
  EXPECT_TRUE(store.extends(b1->hash(), Block::genesis().hash()));
  EXPECT_TRUE(store.extends(b0->hash(), b0->hash())) << "a block extends itself";
  EXPECT_FALSE(store.extends(fork->hash(), b0->hash()));
  EXPECT_FALSE(store.extends(b0->hash(), b1->hash())) << "extends is directional";
}

TEST(BlockStoreTest, ExtendsWithMissingAncestorsIsFalse) {
  BlockStore store;
  const auto b0 = make_block(Block::genesis().hash(), 0, {0});
  const auto b1 = make_block(b0->hash(), 1, {1});
  store.insert(b1);  // b0 missing
  EXPECT_FALSE(store.extends(b1->hash(), Block::genesis().hash()));
}

TEST(BlockStoreTest, PruneThroughKeepsTheChainAboveTheHorizon) {
  BlockStore store;
  const auto b0 = make_block(Block::genesis().hash(), 0, {0});
  const auto b1 = make_block(b0->hash(), 1, {1});
  const auto fork1 = make_block(b0->hash(), 1, {9});
  const auto b2 = make_block(b1->hash(), 2, {2});
  const auto b3 = make_block(b2->hash(), 3, {3});
  for (const auto& b : {b3, b0, fork1, b2, b1}) store.insert(b);  // any arrival order
  ASSERT_EQ(store.size(), 6U);

  store.prune_through(1, b1->hash());
  EXPECT_FALSE(store.contains(Block::genesis().hash()));
  EXPECT_FALSE(store.contains(b0->hash()));
  EXPECT_FALSE(store.contains(fork1->hash())) << "an abandoned fork below the horizon goes too";
  EXPECT_TRUE(store.contains(b1->hash())) << "the kept block stays";
  EXPECT_TRUE(store.contains(b2->hash()));
  EXPECT_TRUE(store.contains(b3->hash()));
  EXPECT_EQ(store.size(), 3U);
  EXPECT_TRUE(store.extends(b3->hash(), b1->hash()));

  // Re-inserting a pruned block stores it again; the next prune drops it.
  store.insert(b0);
  store.prune_through(2, b2->hash());
  EXPECT_EQ(store.size(), 2U);
  EXPECT_TRUE(store.contains(b2->hash()));
  EXPECT_TRUE(store.contains(b3->hash()));
}

}  // namespace
}  // namespace lumiere::consensus
