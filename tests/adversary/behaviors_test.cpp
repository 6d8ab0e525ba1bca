#include "adversary/behaviors.h"

#include <gtest/gtest.h>

#include <memory>

#include "consensus/messages.h"
#include "crypto/authenticator.h"
#include "core/epoch_math.h"
#include "core/lumiere.h"
#include "pacemaker/messages.h"
#include "runtime/cluster.h"

namespace lumiere::adversary {
namespace {

std::unique_ptr<crypto::Authenticator> test_auth() {
  return crypto::make_authenticator(crypto::kDefaultScheme, 4, 1);
}

consensus::ProposalMsg sample_proposal() {
  const auto genesis = consensus::QuorumCert::genesis(consensus::Block::genesis().hash());
  return consensus::ProposalMsg(consensus::Block(1, {}, genesis));
}

TEST(BehaviorTest, HonestAllowsEverything) {
  HonestBehavior honest;
  EXPECT_TRUE(honest.allow_send(TimePoint(0), 1, sample_proposal()));
}

TEST(BehaviorTest, CrashCutsOffAtTime) {
  CrashBehavior crash(TimePoint(100));
  EXPECT_TRUE(crash.allow_send(TimePoint(99), 1, sample_proposal()));
  EXPECT_FALSE(crash.allow_send(TimePoint(100), 1, sample_proposal()));
  EXPECT_FALSE(crash.allow_send(TimePoint(500), 1, sample_proposal()));
}

TEST(BehaviorTest, MuteDropsAll) {
  MuteBehavior mute;
  EXPECT_FALSE(mute.allow_send(TimePoint(0), 1, sample_proposal()));
}

TEST(BehaviorTest, SilentLeaderDropsLeaderDutiesOnly) {
  SilentLeaderBehavior silent;
  const auto auth = test_auth();
  EXPECT_FALSE(silent.allow_send(TimePoint(0), 1, sample_proposal()));

  const auto vote_share = crypto::threshold_share(
      auth->signer_for(0), consensus::QuorumCert::statement(1, crypto::Sha256::hash("b")));
  const consensus::VoteMsg vote(1, crypto::Sha256::hash("b"), vote_share);
  EXPECT_TRUE(silent.allow_send(TimePoint(0), 1, vote)) << "replica duties continue";

  const auto view_share =
      crypto::threshold_share(auth->signer_for(0), pacemaker::view_msg_statement(2));
  const pacemaker::ViewMsg vm(2, view_share);
  EXPECT_TRUE(silent.allow_send(TimePoint(0), 1, vm));
}

TEST(BehaviorTest, QcWithholderDropsOnlyQcs) {
  QcWithholderBehavior withholder;
  EXPECT_TRUE(withholder.allow_send(TimePoint(0), 1, sample_proposal()));
  const auto genesis = consensus::QuorumCert::genesis(consensus::Block::genesis().hash());
  EXPECT_FALSE(withholder.allow_send(TimePoint(0), 1, consensus::QcMsg(genesis)));
}

TEST(BehaviorTest, FactoryAssignsByzantineSet) {
  const auto factory = byzantine_set(
      {1, 3}, [](ProcessId) { return std::make_unique<MuteBehavior>(); });
  EXPECT_STREQ(factory(0)->name(), "honest");
  EXPECT_STREQ(factory(1)->name(), "mute");
  EXPECT_STREQ(factory(2)->name(), "honest");
  EXPECT_STREQ(factory(3)->name(), "mute");
}

TEST(BehaviorIntegrationTest, EpochStormCannotForceHeavySync) {
  // f Byzantine epoch-stormers alone cannot form a TC (f+1 signers), so
  // Lumiere's steady state stays quiet and live despite the storm.
  runtime::ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(4, Duration::millis(10)))
      .pacemaker("lumiere")
      .seed(23)
      .delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)));
  const core::EpochMath math_probe(4, Duration::millis(100));
  builder.behaviors(byzantine_set({0}, [&](ProcessId) -> std::unique_ptr<Behavior> {
    return std::make_unique<EpochStormBehavior>(math_probe.views_per_epoch());
  }));
  runtime::Cluster cluster(builder);
  cluster.run_for(Duration::seconds(40));
  EXPECT_GE(cluster.metrics().decisions().size(), 20U);
  // The storm is visible on the wire (Byzantine traffic is free for the
  // adversary) but honest processors did not join in after bootstrap.
  for (const ProcessId id : cluster.honest_ids()) {
    const auto& pm = static_cast<const core::LumierePacemaker&>(cluster.node(id).pacemaker());
    EXPECT_LE(pm.epoch_msgs_sent(), 1U) << "storm tricked node " << id;
  }
}

}  // namespace
}  // namespace lumiere::adversary
