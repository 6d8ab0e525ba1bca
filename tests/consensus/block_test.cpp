#include "consensus/block.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

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
  const Block base(1, {1, 2}, genesis_qc());
  const Block diff_view(2, {1, 2}, genesis_qc());
  const Block diff_payload(1, {1, 3}, genesis_qc());
  const Block diff_parent(1, {1, 2}, QuorumCert::genesis(crypto::Sha256::hash("other")));
  EXPECT_NE(base.hash(), diff_view.hash());
  EXPECT_NE(base.hash(), diff_payload.hash());
  EXPECT_NE(base.hash(), diff_parent.hash());
}

TEST(BlockTest, ParentIsTheJustifysBlock) {
  const Block block(1, {1, 2}, genesis_qc());
  EXPECT_EQ(block.parent(), Block::genesis().hash());
  EXPECT_EQ(Block::genesis().parent(), crypto::Digest{}) << "genesis has no parent";
}

/// The block hash as a ser::Writer encoding of its fields, hashed in one
/// piece: the construction Block::compute_hash streams instead. The
/// parent's slot holds the justify's block hash, which is the parent.
crypto::Digest writer_hash(const Block& b) {
  ser::Writer w;
  w.str("lumiere.block");
  w.digest(b.parent());
  w.view(b.view());
  w.bytes(std::span<const std::uint8_t>(b.payload().data(), b.payload().size()));
  w.view(b.justify().view());
  w.digest(b.justify().block_hash());
  return crypto::Sha256::hash(std::span<const std::uint8_t>(w.data().data(), w.size()));
}

TEST(BlockTest, StreamedHashMatchesTheWriterEncoding) {
  const Block empty(0, {}, genesis_qc());
  EXPECT_EQ(empty.hash(), writer_hash(empty));
  std::vector<std::uint8_t> payload(4096);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::uint8_t>(i * 7);
  const Block full(1 << 20, payload, QuorumCert::genesis(empty.hash()));
  EXPECT_EQ(full.hash(), writer_hash(full));
  // Genesis hashes its fields under the default (view -1) QC, not the
  // self-certifying one it carries.
  const Block& genesis = Block::genesis();
  ser::Writer w;
  w.str("lumiere.block");
  w.digest(crypto::Digest{});
  w.view(-1);
  w.bytes(std::span<const std::uint8_t>());
  w.view(QuorumCert().view());
  w.digest(QuorumCert().block_hash());
  EXPECT_EQ(genesis.hash(),
            crypto::Sha256::hash(std::span<const std::uint8_t>(w.data().data(), w.size())));
}

TEST(BlockTest, SerializeRoundTrip) {
  const Block block(7, {9, 8, 7}, genesis_qc());
  ser::Writer w;
  block.serialize(w);
  ser::Reader r(std::span<const std::uint8_t>(w.data().data(), w.size()));
  const auto out = Block::deserialize(r);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->hash(), block.hash());
  EXPECT_EQ(out->view(), 7);
}

/// A block in its own shared allocation, as every holder keeps it. An
/// unsigned view -1 QC naming `parent` stands in for its justify.
std::shared_ptr<const Block> make_block(const crypto::Digest& parent, View view,
                                        std::vector<std::uint8_t> payload) {
  return std::make_shared<const Block>(view, std::move(payload), QuorumCert::genesis(parent));
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
