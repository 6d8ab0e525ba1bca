// A committing replica's BlockStore holds only its uncommitted chain plus
// the last committed block: however long the run, the store stays a few
// blocks while the ledger grows, and committed blocks are still served
// for block sync from the ledger.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "consensus/chained_core.h"
#include "runtime/cluster.h"

namespace lumiere::consensus {
namespace {

using runtime::Cluster;
using runtime::ScenarioBuilder;

/// Blocks a replica may hold in steady state: the commit chain above the
/// horizon (at most three QCs deep), the last committed block, a pending
/// proposal and a little slack for reordering.
constexpr std::size_t kStoreBound = 8;

class BlockStoreBound : public ::testing::TestWithParam<const char*> {};

TEST_P(BlockStoreBound, StoreStaysSmallWhileTheLedgerGrows) {
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(4, Duration::millis(10), /*x=*/4));
  builder.pacemaker("lumiere");
  builder.core(GetParam());
  builder.seed(5);
  builder.delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)));
  Cluster cluster(builder);
  const auto chained = [&cluster](ProcessId id) -> const ChainedCore& {
    return dynamic_cast<const ChainedCore&>(cluster.node(id).core());
  };

  std::size_t peak = 0;
  for (int slice = 0; slice < 30; ++slice) {
    cluster.run_for(Duration::millis(100));
    for (ProcessId id = 0; id < 4; ++id) {
      peak = std::max(peak, chained(id).block_store().size());
    }
  }
  EXPECT_LE(peak, kStoreBound) << GetParam();
  for (ProcessId id = 0; id < 4; ++id) {
    const Ledger& ledger = cluster.node(id).ledger();
    ASSERT_GT(ledger.size(), 100U) << GetParam() << " node " << id;
    // The oldest committed block left the store but still serves sync,
    // as the ledger's allocation.
    const CommittedEntry& first = ledger.entries().front();
    EXPECT_FALSE(chained(id).block_store().contains(first.hash()));
    EXPECT_EQ(cluster.node(id).core().block_for_sync(first.hash()), first.block);
    // The last one stays: the next commit walk reconnects to it.
    EXPECT_TRUE(chained(id).block_store().contains(ledger.entries().back().hash()));
  }
}

INSTANTIATE_TEST_SUITE_P(Cores, BlockStoreBound,
                         ::testing::Values("chained-hotstuff", "hotstuff-2"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace lumiere::consensus
