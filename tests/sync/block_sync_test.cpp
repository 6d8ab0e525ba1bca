// BlockSynchronizer unit tests: fetch issue/dedup/retry rotation, the
// responder's linked-segment walk, and the structural verification of
// responses (forged, unlinked, empty and unsolicited chains).
#include "sync/block_sync.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "consensus/block.h"
#include "sync/messages.h"

namespace lumiere::sync {
namespace {

using consensus::Block;
using consensus::QuorumCert;

/// A parent-linked chain b[0] <- b[1] <- ... rooted at genesis. The
/// synchronizer verifies structure only (content addressing), so the
/// genesis QC stands in for every justify.
BlockRespMsg::Blocks make_chain(std::size_t length) {
  const QuorumCert justify = QuorumCert::genesis(Block::genesis().hash());
  BlockRespMsg::Blocks chain;
  crypto::Digest parent = Block::genesis().hash();
  for (std::size_t i = 0; i < length; ++i) {
    chain.push_back(std::make_shared<const Block>(
        parent, static_cast<View>(i), std::vector<std::uint8_t>{static_cast<std::uint8_t>(i)},
        justify));
    parent = chain.back()->hash();
  }
  return chain;
}

/// Harness around one synchronizer: records sends, accepted blocks and
/// armed retry timers; serves lookups from a local map.
struct Harness {
  explicit Harness(ProcessId self = 0, std::uint32_t n = 4) {
    SyncCallbacks cb;
    cb.send = [this](ProcessId to, MessagePtr msg) { sent.emplace_back(to, std::move(msg)); };
    cb.schedule = [this](Duration /*delay*/, std::function<void()> fn) {
      timers.push_back(std::move(fn));
    };
    cb.lookup = [this](const crypto::Digest& hash) -> std::shared_ptr<const Block> {
      const auto it = store.find(hash);
      return it == store.end() ? nullptr : it->second;
    };
    cb.accept = [this](const Block& block) { accepted.push_back(block.shared_from_this()); };
    sync.emplace(self, n, Duration::millis(20), std::move(cb));
  }

  void hold(const std::shared_ptr<const Block>& block) { store[block->hash()] = block; }

  /// Fires every armed retry timer once (new arms queue for the next call).
  void fire_timers() {
    std::vector<std::function<void()>> due;
    due.swap(timers);
    for (auto& fn : due) fn();
  }

  std::vector<std::pair<ProcessId, MessagePtr>> sent;
  std::vector<std::function<void()>> timers;
  BlockRespMsg::Blocks accepted;
  std::map<crypto::Digest, std::shared_ptr<const Block>> store;
  std::optional<BlockSynchronizer> sync;
};

TEST(BlockSyncTest, MissingHashIssuesOneFetchAndDedupes) {
  Harness h;
  const auto chain = make_chain(1);
  h.sync->on_missing(chain[0]->hash());
  h.sync->on_missing(chain[0]->hash());  // already in flight: no second send
  ASSERT_EQ(h.sent.size(), 1U);
  EXPECT_EQ(h.sync->fetches_sent(), 1U);
  EXPECT_EQ(h.sync->pending(), 1U);
  const auto& fetch = static_cast<const BlockFetchMsg&>(*h.sent[0].second);
  EXPECT_EQ(fetch.type_id(), kBlockFetch);
  EXPECT_EQ(fetch.hash(), chain[0]->hash());
  EXPECT_NE(h.sent[0].first, ProcessId{0});  // never asks itself
}

TEST(BlockSyncTest, RetryRotatesThroughPeersSkippingSelf) {
  Harness h(/*self=*/1, /*n=*/4);
  const auto chain = make_chain(1);
  h.sync->on_missing(chain[0]->hash());
  for (int i = 0; i < 5; ++i) h.fire_timers();
  ASSERT_EQ(h.sent.size(), 6U);
  for (const auto& [to, msg] : h.sent) EXPECT_NE(to, ProcessId{1});
  // Six sends over three usable peers: each asked exactly twice.
  std::map<ProcessId, int> asked;
  for (const auto& [to, msg] : h.sent) ++asked[to];
  EXPECT_EQ(asked.size(), 3U);
  for (const auto& [to, count] : asked) EXPECT_EQ(count, 2) << "peer " << to;
}

TEST(BlockSyncTest, StaleRetryTimerIsHarmlessAfterResolution) {
  Harness h;
  const auto chain = make_chain(1);
  h.sync->on_missing(chain[0]->hash());
  h.sync->on_message(2, std::make_shared<BlockRespMsg>(chain[0]->hash(),
                                                       BlockRespMsg::Blocks{chain[0]}));
  EXPECT_EQ(h.sync->pending(), 0U);
  h.fire_timers();  // the armed retry must notice the entry is gone
  EXPECT_EQ(h.sent.size(), 1U);
  EXPECT_EQ(h.sync->fetches_sent(), 1U);
}

TEST(BlockSyncTest, ResponderServesDeepestLastLinkedSegment) {
  Harness h;
  const auto chain = make_chain(3);
  for (const auto& block : chain) h.hold(block);
  h.sync->on_message(2, std::make_shared<BlockFetchMsg>(chain[2]->hash(), 8));
  ASSERT_EQ(h.sent.size(), 1U);
  EXPECT_EQ(h.sent[0].first, ProcessId{2});
  const auto& resp = static_cast<const BlockRespMsg&>(*h.sent[0].second);
  EXPECT_EQ(resp.requested(), chain[2]->hash());
  // blocks[0] is the requested block, then parents toward genesis.
  ASSERT_EQ(resp.blocks().size(), 3U);
  EXPECT_EQ(resp.blocks()[0]->hash(), chain[2]->hash());
  EXPECT_EQ(resp.blocks()[1]->hash(), chain[1]->hash());
  EXPECT_EQ(resp.blocks()[2]->hash(), chain[0]->hash());
  EXPECT_EQ(resp.blocks()[0], chain[2]) << "the response carries the stored allocation";
  EXPECT_EQ(h.sync->fetches_served(), 1U);
}

TEST(BlockSyncTest, ResponderHonorsRequesterLimit) {
  Harness h;
  const auto chain = make_chain(5);
  for (const auto& block : chain) h.hold(block);
  h.sync->on_message(3, std::make_shared<BlockFetchMsg>(chain[4]->hash(), 2));
  ASSERT_EQ(h.sent.size(), 1U);
  const auto& resp = static_cast<const BlockRespMsg&>(*h.sent[0].second);
  ASSERT_EQ(resp.blocks().size(), 2U);
  EXPECT_EQ(resp.blocks()[0]->hash(), chain[4]->hash());
  EXPECT_EQ(resp.blocks()[1]->hash(), chain[3]->hash());
}

TEST(BlockSyncTest, ResponderStaysSilentWithoutTheBlock) {
  Harness h;
  const auto chain = make_chain(1);
  h.sync->on_message(2, std::make_shared<BlockFetchMsg>(chain[0]->hash(), 8));
  EXPECT_TRUE(h.sent.empty());  // silence lets the requester's retry rotate
  EXPECT_EQ(h.sync->fetches_served(), 0U);
}

TEST(BlockSyncTest, ForgedResponseIsRejectedAndFetchStaysPending) {
  Harness h;
  const auto chain = make_chain(2);
  h.sync->on_missing(chain[1]->hash());
  // A Byzantine peer returns a block that does NOT hash to the request:
  // content addressing makes the forgery self-evident.
  h.sync->on_message(3, std::make_shared<BlockRespMsg>(chain[1]->hash(),
                                                       BlockRespMsg::Blocks{chain[0]}));
  EXPECT_EQ(h.sync->responses_rejected(), 1U);
  EXPECT_TRUE(h.accepted.empty());
  EXPECT_EQ(h.sync->pending(), 1U);  // still outstanding; retries continue
}

TEST(BlockSyncTest, UnlinkedTailIsDroppedLinkedPrefixAcceptedDeepestFirst) {
  Harness h;
  const auto chain = make_chain(3);
  // Genesis-rooted sibling of chain[0] (different payload, so a different
  // hash under content addressing) — NOT chain[1]'s parent.
  const auto stray = std::make_shared<const Block>(
      Block::genesis().hash(), 0, std::vector<std::uint8_t>{0x77},
      QuorumCert::genesis(Block::genesis().hash()));
  // [chain[2], chain[1], stray]: the first link holds, the second breaks
  // — only the linked prefix may enter the store.
  h.sync->on_missing(chain[2]->hash());
  h.sync->on_message(1, std::make_shared<BlockRespMsg>(
                            chain[2]->hash(), BlockRespMsg::Blocks{chain[2], chain[1], stray}));
  ASSERT_EQ(h.accepted.size(), 2U);
  EXPECT_EQ(h.accepted[0]->hash(), chain[1]->hash());  // deepest first
  EXPECT_EQ(h.accepted[1]->hash(), chain[2]->hash());  // requested block last
  EXPECT_EQ(h.accepted[1], chain[2]) << "the core receives the response's allocation";
  EXPECT_EQ(h.sync->blocks_accepted(), 2U);
  EXPECT_EQ(h.sync->pending(), 0U);
}

TEST(BlockSyncTest, UnsolicitedAndEmptyResponsesAreRejected) {
  Harness h;
  const auto chain = make_chain(1);
  h.sync->on_message(2, std::make_shared<BlockRespMsg>(chain[0]->hash(),
                                                       BlockRespMsg::Blocks{chain[0]}));
  EXPECT_EQ(h.sync->responses_rejected(), 1U);  // never asked
  h.sync->on_missing(chain[0]->hash());
  h.sync->on_message(2, std::make_shared<BlockRespMsg>(chain[0]->hash(), BlockRespMsg::Blocks{}));
  EXPECT_EQ(h.sync->responses_rejected(), 2U);  // empty answer
  EXPECT_TRUE(h.accepted.empty());
  EXPECT_EQ(h.sync->pending(), 1U);
}

TEST(BlockSyncTest, WireRoundTripPreservesChain) {
  const auto chain = make_chain(2);
  const BlockRespMsg original(chain[1]->hash(), BlockRespMsg::Blocks{chain[1], chain[0]});
  const std::vector<std::uint8_t> frame = MessageCodec::encode(original);
  MessageCodec codec;
  register_sync_messages(codec);
  const MessagePtr decoded = codec.decode(frame);
  ASSERT_NE(decoded, nullptr);
  const auto& resp = static_cast<const BlockRespMsg&>(*decoded);
  ASSERT_EQ(resp.blocks().size(), 2U);
  // Block::deserialize recomputes hashes — equality means content match.
  EXPECT_EQ(resp.requested(), chain[1]->hash());
  EXPECT_EQ(*resp.blocks()[0], *chain[1]);
  EXPECT_EQ(*resp.blocks()[1], *chain[0]);
}

TEST(BlockSyncTest, OversizedResponseCountIsRejectedAtDecode) {
  const auto chain = make_chain(1);
  // Hand-build a frame claiming more blocks than the cap: the decoder
  // must refuse before attempting the giant allocation.
  ser::Writer w;
  w.u32(kBlockResp);
  w.digest(chain[0]->hash());
  w.u32(BlockRespMsg::kMaxBlocksPerResponse + 1);
  MessageCodec codec;
  register_sync_messages(codec);
  EXPECT_EQ(codec.decode(w.data()), nullptr);
}

}  // namespace
}  // namespace lumiere::sync
