// Block-sync integration: a schedule that would permanently wedge an
// honest replica without the subsystem commits on every honest replica,
// because every node runs a synchronizer.
//
// The wedge is manufactured the way real deployments hit it: a crash
// window. A down processor LOSES the proposals sent while it is down
// (sim::Network delivers only to live endpoints), and peers never
// re-send old blocks — so after recovery the victim's commit walk hits a
// missing ancestor that will never arrive. An equivocator rides along
// (within the f budget) so the recovery happens under the same active
// attack the soak schedule uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "adversary/behaviors.h"
#include "consensus/chained_core.h"
#include "runtime/cluster.h"
#include "testutil/oracles.h"

namespace lumiere::runtime {
namespace {

using testutil::oracle_ok;

constexpr std::uint32_t kN = 7;  // f = 2: one equivocator + one crash victim
constexpr ProcessId kEquivocator = 0;
constexpr ProcessId kVictim = 6;
const TimePoint kCrashAt(Duration::seconds(2).ticks());
const TimePoint kRecoverAt(Duration::seconds(6).ticks());
const Duration kRunFor = Duration::seconds(30);

Cluster make_cluster(const std::string& core) {
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(kN, Duration::millis(10)));
  options.pacemaker("lumiere");
  options.core(core);
  options.seed(1907);
  options.delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)));
  options.behaviors(adversary::byzantine_set(
      {kEquivocator}, [](ProcessId) { return adversary::make_behavior("equivocator"); }));
  options.crash(kVictim, kCrashAt);
  options.recover(kVictim, kRecoverAt);
  return Cluster(options);
}

class BlockSyncRecovery : public ::testing::TestWithParam<const char*> {};

TEST_P(BlockSyncRecovery, CrashVictimCatchesUpThroughSync) {
  Cluster cluster = make_cluster(GetParam());
  cluster.run_for(kRunFor);
  EXPECT_TRUE(oracle_ok(fuzz::check_safety(cluster)));
  const consensus::Ledger& victim = cluster.node(kVictim).ledger();
  const consensus::Ledger& peer = cluster.node(1).ledger();
  ASSERT_FALSE(victim.entries().empty());
  EXPECT_GT(victim.entries().back().committed_at, kRecoverAt)
      << GetParam() << ": victim never un-wedged despite block sync";
  // Backfill is full-history: the victim holds the same committed chain
  // as its peers, short at most the commits still in flight at cutoff.
  EXPECT_GE(victim.size() + 5, peer.size());
  const sync::BlockSynchronizer* sync = cluster.node(kVictim).synchronizer();
  EXPECT_GT(sync->blocks_accepted(), 0U) << "the catch-up must have come through the sync path";
  EXPECT_EQ(sync->responses_rejected(), 0U);
  // Some peer actually served the backfill.
  std::uint64_t served = 0;
  for (ProcessId id = 0; id < kN; ++id) served += cluster.node(id).synchronizer()->fetches_served();
  EXPECT_GT(served, 0U);
}

TEST_P(BlockSyncRecovery, VictimBackfillsFromPeersLedgers) {
  // A replica's core stores only its uncommitted chain, so by the time
  // the victim recovers, every block it missed has left each honest
  // peer's store: the backfill can only come from their ledgers
  // (ConsensusCore::block_for_sync through CoreCallbacks::committed_block).
  Cluster cluster = make_cluster(GetParam());
  cluster.run_until(kRecoverAt);
  const auto chained = [&cluster](ProcessId id) -> const consensus::ChainedCore& {
    return dynamic_cast<const consensus::ChainedCore&>(cluster.node(id).core());
  };
  const consensus::Ledger& victim = cluster.node(kVictim).ledger();
  const View victim_horizon = victim.empty() ? View{-1} : victim.entries().back().view();
  View horizon = std::numeric_limits<View>::max();
  for (ProcessId id = 1; id < kVictim; ++id) {
    horizon = std::min(horizon, chained(id).last_committed_view());
  }
  std::vector<crypto::Digest> missed;
  for (const consensus::CommittedEntry& entry : cluster.node(1).ledger().entries()) {
    if (entry.view() > victim_horizon && entry.view() < horizon) missed.push_back(entry.hash());
  }
  ASSERT_GT(missed.size(), 50U) << GetParam() << ": the crash window must span many commits";
  for (ProcessId id = 1; id < kVictim; ++id) {
    for (const crypto::Digest& hash : missed) {
      ASSERT_FALSE(chained(id).block_store().contains(hash)) << "peer " << id;
    }
  }

  cluster.run_for(Duration::seconds(6));
  EXPECT_TRUE(oracle_ok(fuzz::check_safety(cluster)));
  EXPECT_GT(cluster.node(kVictim).synchronizer()->blocks_accepted(), 0U);
  EXPECT_GE(victim.size() + 5, cluster.node(1).ledger().size());
  for (const crypto::Digest& hash : missed) {
    EXPECT_NE(victim.find(hash), nullptr) << GetParam() << ": the victim never backfilled a block";
  }
}

INSTANTIATE_TEST_SUITE_P(Cores, BlockSyncRecovery,
                         ::testing::Values("chained-hotstuff", "hotstuff-2"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(BlockSyncRecovery, SyncIsIdleWhenNothingIsMissing) {
  // Every node runs a synchronizer, yet a run where no commit walk hits a
  // gap must be byte-identical to one without the subsystem: no fetches,
  // no messages, no metric charges. (The golden digests in
  // tests/workload/workload_determinism_test.cpp pin the same contract.)
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(4, Duration::millis(10)));
  options.pacemaker("lumiere");
  options.core("chained-hotstuff");
  options.seed(7);
  options.delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)));
  Cluster cluster(options);
  cluster.run_for(Duration::seconds(10));
  ASSERT_FALSE(cluster.node(0).ledger().empty());
  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_EQ(cluster.node(id).synchronizer()->fetches_sent(), 0U);
  }
  EXPECT_EQ(cluster.metrics().sync_msgs(), 0U);
}

}  // namespace
}  // namespace lumiere::runtime
