// One allocation per block: every holder in a process — the proposal,
// each replica's BlockStore, sync responses and ledger entries — shares
// the block the proposer built, and dissemination shares one buffer per
// batch. Only the wire (the TCP codec) makes a second allocation, and it
// recomputes the hash from the received bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "adversary/behaviors.h"
#include "consensus/messages.h"
#include "dissem/disseminator.h"
#include "runtime/cluster.h"
#include "workload/engine.h"

namespace lumiere::consensus {
namespace {

using runtime::Cluster;
using runtime::ScenarioBuilder;

ScenarioBuilder workload_cluster(std::uint64_t seed) {
  workload::WorkloadSpec spec;
  spec.arrival = workload::Arrival::kConstant;
  spec.clients_per_node = 1;
  spec.rate_per_client = 150.0;
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(4, Duration::millis(10), /*x=*/4));
  builder.pacemaker("lumiere");
  builder.core("chained-hotstuff");
  builder.seed(seed);
  builder.delay(std::make_shared<sim::FixedDelay>(Duration::micros(500)));
  builder.workload(spec);
  return builder;
}

/// For every block `owner` committed: each of `holders` that stores the
/// block stores the ledger entry's allocation, and the entry's payload
/// views that block's bytes. Returns the number of blocks checked.
std::size_t expect_shared_ledger_blocks(Cluster& cluster, ProcessId owner,
                                        const std::vector<ProcessId>& holders) {
  std::size_t checked = 0;
  for (const CommittedEntry& entry : cluster.node(owner).ledger().entries()) {
    if (entry.block == nullptr) {
      ADD_FAILURE() << "ledger entry for view " << entry.view() << " holds no block";
      continue;
    }
    EXPECT_EQ(cluster.node(owner).core().block_for_sync(entry.hash()), entry.block)
        << "ledger entry for view " << entry.view() << " is not the stored block";
    EXPECT_EQ(entry.payload.data(), entry.block->payload().data());
    EXPECT_EQ(entry.payload.size(), entry.block->payload().size());
    for (const ProcessId id : holders) {
      const auto stored = cluster.node(id).core().block_for_sync(entry.hash());
      if (stored != nullptr) {
        EXPECT_EQ(stored, entry.block) << "node " << id << " holds a copy of view " << entry.view();
      }
    }
    ++checked;
  }
  return checked;
}

TEST(BlockSharingTest, EveryReplicaAndLedgerHoldsTheProposersAllocation) {
  Cluster cluster(workload_cluster(41));
  cluster.run_for(Duration::seconds(3));
  const std::vector<ProcessId> all = {0, 1, 2, 3};
  EXPECT_GT(expect_shared_ledger_blocks(cluster, 0, all), 20U);
  const auto& entries = cluster.node(0).ledger().entries();
  EXPECT_TRUE(std::any_of(entries.begin(), entries.end(),
                          [](const CommittedEntry& e) { return !e.payload.empty(); }))
      << "the workload must put bytes in some block";
  // Every replica's ledger references the same allocation.
  for (ProcessId id = 1; id < 4; ++id) {
    const auto& other = cluster.node(id).ledger().entries();
    for (std::size_t i = 0; i < std::min(entries.size(), other.size()); ++i) {
      EXPECT_EQ(other[i].block, entries[i].block) << "node " << id << " entry " << i;
    }
  }
}

TEST(BlockSharingTest, BlockSyncHandsTheVictimTheRespondersAllocation) {
  // The block_sync_sim schedule: the victim misses every proposal while
  // down, so the blocks it commits from that window arrived by sync.
  constexpr ProcessId kVictim = 6;
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(7, Duration::millis(10)));
  builder.pacemaker("lumiere");
  builder.core("chained-hotstuff");
  builder.seed(1907);
  builder.delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)));
  builder.behaviors(adversary::byzantine_set(
      {0}, [](ProcessId) { return adversary::make_behavior("equivocator"); }));
  builder.crash(kVictim, TimePoint(Duration::seconds(2).ticks()));
  builder.recover(kVictim, TimePoint(Duration::seconds(6).ticks()));
  Cluster cluster(builder);
  cluster.run_for(Duration::seconds(10));

  const sync::BlockSynchronizer* sync = cluster.node(kVictim).synchronizer();
  ASSERT_NE(sync, nullptr);
  ASSERT_GT(sync->blocks_accepted(), 0U) << "the victim must have backfilled through sync";
  EXPECT_GT(expect_shared_ledger_blocks(cluster, kVictim, {1, 2, 3, 4, 5}), 0U);
}

TEST(BlockSharingTest, DisseminatedBatchesShareOneBufferAcrossReplicas) {
  ScenarioBuilder builder = workload_cluster(42);
  builder.dissemination();
  Cluster cluster(builder);
  cluster.run_for(Duration::seconds(3));

  std::size_t checked = 0;
  for (const CommittedEntry& entry : cluster.node(0).ledger().entries()) {
    if (entry.payload.empty()) continue;
    const auto refs = dissem::decode_refs(entry.payload);
    ASSERT_TRUE(refs.has_value());
    for (const dissem::BatchCert& cert : *refs) {
      const std::vector<std::uint8_t>* origin =
          cluster.node(cert.id().origin).disseminator()->payload_of(cert.id());
      ASSERT_NE(origin, nullptr);
      for (ProcessId id = 0; id < 4; ++id) {
        const std::vector<std::uint8_t>* bytes =
            cluster.node(id).disseminator()->payload_of(cert.id());
        if (bytes != nullptr) {
          EXPECT_EQ(bytes, origin) << "node " << id << " copied a batch";
        }
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 10U);
}

TEST(BlockSharingTest, CodecRoundTripAllocatesAnEqualBlockAndRecomputesItsHash) {
  const auto block = std::make_shared<const Block>(
      3, std::vector<std::uint8_t>{1, 2, 3}, QuorumCert::genesis(Block::genesis().hash()));
  MessageCodec codec;
  register_consensus_messages(codec);
  std::vector<std::uint8_t> frame = MessageCodec::encode(ProposalMsg(block));

  const MessagePtr decoded = codec.decode(frame);
  ASSERT_NE(decoded, nullptr);
  const auto& copy = static_cast<const ProposalMsg&>(*decoded).shared_block();
  EXPECT_NE(copy, block) << "a decoded block is the receiver's own allocation";
  EXPECT_EQ(*copy, *block);
  EXPECT_EQ(copy->payload(), block->payload());

  // The hash is the receiver's recomputation, not a field on the wire: a
  // flipped payload byte decodes to a block under a different address.
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  const auto at = std::search(frame.begin(), frame.end(), payload.begin(), payload.end());
  ASSERT_NE(at, frame.end());
  *at ^= 0x40;
  const MessagePtr tampered = codec.decode(frame);
  ASSERT_NE(tampered, nullptr);
  EXPECT_NE(static_cast<const ProposalMsg&>(*tampered).block().hash(), block->hash());
}

}  // namespace
}  // namespace lumiere::consensus
