// A broadcast proposal costs every replica the same heap bytes whatever
// its payload size: each replica's BlockStore and pending-proposal slot
// hold the message's block allocation instead of a copy.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "alloc_counter.h"
#include "consensus/messages.h"
#include "testutil/core_harness.h"

namespace lumiere::sim {
namespace {

using consensus::Block;
using consensus::ProposalMsg;
using consensus::QuorumCert;

constexpr std::uint32_t kReplicas = 31;

/// Heap bytes allocated while one view-0 proposal carrying `payload_size`
/// bytes reaches every one of kReplicas chained cores. No core has entered
/// a view, so each stores the block and parks it as pending without voting.
std::size_t fanout_bytes(std::size_t payload_size) {
  testutil::CoreHarness<consensus::ChainedCore> h(kReplicas);
  const auto block = std::make_shared<const Block>(
      Block::genesis().hash(), 0, std::vector<std::uint8_t>(payload_size, 0x5A),
      QuorumCert::genesis(Block::genesis().hash()));
  const MessagePtr proposal = std::make_shared<ProposalMsg>(block);
  const std::size_t before = alloc::bytes();
  h.network().broadcast(/*from=lead(0)*/ 0, proposal);
  h.settle();
  const std::size_t spent = alloc::bytes() - before;
  for (ProcessId id = 0; id < kReplicas; ++id) {
    EXPECT_EQ(h.core(id).block_store().get(block->hash()), block) << "replica " << id;
  }
  return spent;
}

TEST(ProposalFanoutTest, HeapBytesDoNotGrowWithPayloadSize) {
  const std::size_t small = fanout_bytes(64);
  const std::size_t large = fanout_bytes(16 * 1024);
  const std::size_t diff = large > small ? large - small : small - large;
  EXPECT_LT(diff, 1024U) << "64 B payload: " << small << " B allocated; 16 KiB payload: " << large
                         << " B — a replica copied the block";
}

}  // namespace
}  // namespace lumiere::sim
