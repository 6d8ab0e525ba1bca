// ScenarioBuilder semantics: default/override composition, validation,
// deterministic per-node draws.
#include "runtime/scenario.h"

#include <gtest/gtest.h>

#include "adversary/behaviors.h"
#include "crypto/authenticator.h"
#include "runtime/cluster.h"

namespace lumiere::runtime {
namespace {

TEST(ScenarioBuilderTest, DefaultsProduceHomogeneousLumiereCluster) {
  const Scenario scenario = ScenarioBuilder().scenario();
  ASSERT_EQ(scenario.nodes.size(), 4U);
  EXPECT_EQ(scenario.transport, TransportKind::kSim);
  for (const auto& spec : scenario.nodes) {
    EXPECT_EQ(spec.protocol.pacemaker, "lumiere");
    EXPECT_EQ(spec.protocol.core, "simple-view");
    EXPECT_EQ(spec.join_time, TimePoint::origin());
    EXPECT_EQ(spec.clock_drift_ppm, 0);
    ASSERT_NE(spec.behavior, nullptr);
    EXPECT_STREQ(spec.behavior()->name(), "honest");
  }
}

TEST(ScenarioBuilderTest, PerNodeOverridesComposeWithDefaults) {
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(7, Duration::millis(10)))
      .pacemaker("lp22")
      .gamma(Duration::millis(50));
  builder.node(2).pacemaker("fever").core("hotstuff-2");
  builder.node(3).drift_ppm(123).join_time(TimePoint(42));
  builder.node(4).behavior([] { return std::make_unique<adversary::MuteBehavior>(); });
  const Scenario scenario = builder.scenario();

  EXPECT_EQ(scenario.nodes[0].protocol.pacemaker, "lp22");
  EXPECT_EQ(scenario.nodes[0].protocol.gamma, Duration::millis(50));
  EXPECT_EQ(scenario.nodes[2].protocol.pacemaker, "fever");
  EXPECT_EQ(scenario.nodes[2].protocol.core, "hotstuff-2");
  EXPECT_EQ(scenario.nodes[1].protocol.core, "simple-view");
  EXPECT_EQ(scenario.nodes[2].protocol.gamma, Duration::millis(50))
      << "unset tweak fields must inherit the cluster default";
  EXPECT_EQ(scenario.nodes[3].clock_drift_ppm, 123);
  EXPECT_EQ(scenario.nodes[3].join_time, TimePoint(42));
  EXPECT_STREQ(scenario.nodes[4].behavior()->name(), "mute");
  EXPECT_STREQ(scenario.nodes[5].behavior()->name(), "honest");
}

TEST(ScenarioBuilderTest, ValidateAggregatesEveryError) {
  ScenarioBuilder builder;
  ProtocolParams params;
  params.n = 5;  // below 3f + 1 (n >= 3f+1 is the rule since quorum() generalized)
  params.f = 2;
  builder.params(params).pacemaker("whoops").core("nope");
  builder.node(9).core("also-bad");
  const auto errors = builder.validate();
  EXPECT_GE(errors.size(), 4U) << "every problem must be reported, not just the first";
}

TEST(ScenarioBuilderTest, ScheduleRejectsOutOfRangeNodeIds) {
  ScenarioBuilder builder;  // n = 4
  builder.crash(7, TimePoint(1'000));
  builder.recover(7, TimePoint(2'000));
  builder.partition({{0, 1}, {2, 9}}, TimePoint(3'000));
  builder.link_delay(0, 12, std::make_shared<sim::FixedDelay>(Duration(5)), TimePoint(4'000));
  const auto errors = builder.validate();
  EXPECT_EQ(errors.size(), 4U) << "every bad id reported, not just the first";
  for (const auto& error : errors) {
    EXPECT_NE(error.find("nodes 0..3"), std::string::npos)
        << "error must name the valid range: " << error;
  }
}

TEST(ScenarioBuilderTest, ScheduleRejectsNonMonotoneEventTimes) {
  ScenarioBuilder builder;
  builder.partition({{0, 1}, {2, 3}}, TimePoint(Duration::seconds(2).ticks()));
  builder.heal(TimePoint(Duration::seconds(1).ticks()));  // declared after, happens before
  const auto errors = builder.validate();
  ASSERT_EQ(errors.size(), 1U);
  EXPECT_NE(errors[0].find("timeline order"), std::string::npos) << errors[0];

  // Same instant is fine (events fire in declaration order) ...
  ScenarioBuilder same;
  same.partition({{0, 1}, {2, 3}}, TimePoint(1'000));
  same.heal(TimePoint(1'000));
  EXPECT_TRUE(same.validate().empty());

  // ... and a churn window may span later-declared events.
  ScenarioBuilder churned;
  churned.churn(2, TimePoint(1'000), TimePoint(9'000));
  churned.crash(3, TimePoint(5'000));
  churned.recover(3, TimePoint(6'000));
  EXPECT_TRUE(churned.validate().empty());
}

TEST(ScenarioBuilderTest, ScheduleRejectsMalformedPartitionsAndChurn) {
  ScenarioBuilder builder;
  builder.partition({{0, 1}, {1, 2}}, TimePoint(1'000));  // overlapping groups
  const auto overlap = builder.validate();
  ASSERT_EQ(overlap.size(), 1U);
  EXPECT_NE(overlap[0].find("more than one group"), std::string::npos) << overlap[0];

  ScenarioBuilder backwards;
  backwards.churn(1, TimePoint(5'000), TimePoint(5'000));  // rejoin not after leave
  const auto churn_errors = backwards.validate();
  ASSERT_EQ(churn_errors.size(), 1U);
  EXPECT_NE(churn_errors[0].find("strictly after"), std::string::npos) << churn_errors[0];
}

TEST(ScenarioBuilderTest, TopologyPresetsValidateAndResolve) {
  ScenarioBuilder builder;
  builder.topology("wan9");
  const auto unknown = builder.validate();
  ASSERT_EQ(unknown.size(), 1U);
  EXPECT_NE(unknown[0].find("wan3"), std::string::npos)
      << "unknown preset must list the registered ones: " << unknown[0];

  // A WAN preset under the default 10ms Delta would be clamped — rejected
  // with a pointer at delta_cap.
  ScenarioBuilder clamped;
  clamped.topology("wan3");
  const auto errors = clamped.validate();
  ASSERT_EQ(errors.size(), 1U);
  EXPECT_NE(errors[0].find("delta_cap"), std::string::npos) << errors[0];

  // With a Delta above the preset's worst link it resolves into the
  // scenario's delay policy.
  ScenarioBuilder ok;
  ok.params(ProtocolParams::for_n(7, Duration::millis(200))).topology("wan3");
  const Scenario scenario = ok.scenario();
  EXPECT_EQ(scenario.topology, "wan3");
  EXPECT_NE(scenario.delay, nullptr);

  ScenarioBuilder conflicted;
  conflicted.params(ProtocolParams::for_n(4, Duration::millis(200)))
      .topology("lan")
      .delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)));
  const auto conflict = conflicted.validate();
  ASSERT_EQ(conflict.size(), 1U);
  EXPECT_NE(conflict[0].find("mutually exclusive"), std::string::npos) << conflict[0];
}

TEST(ScenarioBuilderTest, ScheduleIsSortedStablyIntoTheScenario) {
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(7, Duration::millis(10)));
  builder.churn(5, TimePoint(1'000), TimePoint(9'000));
  builder.partition({{0, 1, 2}, {3, 4}}, TimePoint(4'000));
  builder.heal(TimePoint(4'000));  // same instant: declaration order kept
  const Scenario scenario = builder.scenario();
  ASSERT_EQ(scenario.schedule.events.size(), 4U);
  EXPECT_EQ(scenario.schedule.events[0].kind, sim::FaultKind::kLeave);
  EXPECT_EQ(scenario.schedule.events[1].kind, sim::FaultKind::kPartition);
  EXPECT_EQ(scenario.schedule.events[2].kind, sim::FaultKind::kHeal);
  EXPECT_EQ(scenario.schedule.events[3].kind, sim::FaultKind::kRejoin)
      << "churn's rejoin sorts into place after later-declared events";
}

TEST(ScenarioBuilderTest, TcpTransportRejectsScheduledDelayEvents) {
  ScenarioBuilder builder;
  builder.transport_tcp(26000);
  builder.partition({{0, 1}, {2, 3}}, TimePoint(1'000));  // fine: TCP analogue exists
  builder.delay_change(std::make_shared<sim::FixedDelay>(Duration(5)), TimePoint(2'000));
  const auto errors = builder.validate();
  ASSERT_EQ(errors.size(), 1U);
  EXPECT_NE(errors[0].find("simulator-only"), std::string::npos) << errors[0];
}

TEST(ScenarioBuilderTest, TcpTransportRejectsSimOnlyFeatures) {
  ScenarioBuilder builder;
  builder.transport_tcp(26000)
      .gst(TimePoint(Duration::seconds(1).ticks()))
      .delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)));
  const auto errors = builder.validate();
  ASSERT_EQ(errors.size(), 2U);
  EXPECT_NE(errors[0].find("delay"), std::string::npos) << errors[0];
  EXPECT_NE(errors[1].find("GST"), std::string::npos) << errors[1];
}

TEST(ScenarioBuilderTest, TcpTransportRequiresUsablePortRange) {
  ScenarioBuilder builder;
  builder.transport_tcp(0);
  EXPECT_EQ(builder.validate().size(), 1U);
  builder.transport_tcp(65534);  // 4 nodes would need 65534..65537
  EXPECT_EQ(builder.validate().size(), 1U);
  builder.transport_tcp(65532);  // 65532..65535 — top port exactly 65535 is fine
  EXPECT_TRUE(builder.validate().empty());
  builder.transport_tcp(26000);
  EXPECT_TRUE(builder.validate().empty());
}

TEST(ScenarioBuilderTest, PipelineIsOffByDefaultAndValidatesKnobs) {
  // Default scenarios never build worker pools — the deterministic
  // simulator (and every golden digest) pins the inline verify path.
  EXPECT_FALSE(ScenarioBuilder().scenario().pipeline.enabled);
  EXPECT_EQ(ScenarioBuilder().scenario().auth_scheme, crypto::kDefaultScheme);

  PipelineSpec degenerate;
  degenerate.enabled = true;
  degenerate.workers = 0;
  degenerate.queue_capacity = 0;
  ScenarioBuilder builder;
  builder.transport_tcp(26000).pipeline(degenerate);
  const auto errors = builder.validate();
  ASSERT_EQ(errors.size(), 2U);
  EXPECT_NE(errors[0].find("workers"), std::string::npos) << errors[0];
  EXPECT_NE(errors[1].find("queue_capacity"), std::string::npos) << errors[1];
}

TEST(ScenarioBuilderTest, PipelineRequiresTheTcpTransport) {
  PipelineSpec pipeline;
  pipeline.enabled = true;
  ScenarioBuilder builder;
  builder.pipeline(pipeline);  // transport defaults to the simulator
  const auto errors = builder.validate();
  ASSERT_EQ(errors.size(), 1U);
  EXPECT_NE(errors[0].find("TCP"), std::string::npos) << errors[0];
  builder.transport_tcp(26000);
  EXPECT_TRUE(builder.validate().empty());
}

TEST(ScenarioBuilderTest, UnknownAuthSchemeIsRejectedListingKnownOnes) {
  ScenarioBuilder builder;
  builder.auth_scheme("not-a-scheme");
  const auto errors = builder.validate();
  ASSERT_EQ(errors.size(), 1U);
  EXPECT_NE(errors[0].find("not-a-scheme"), std::string::npos) << errors[0];
  for (const auto& name : crypto::scheme_names()) {
    EXPECT_NE(errors[0].find(name), std::string::npos)
        << "error must list registered scheme " << name << ": " << errors[0];
  }
  builder.auth_scheme(crypto::kDefaultScheme);
  EXPECT_TRUE(builder.validate().empty());
}

TEST(ScenarioBuilderTest, StaggerAndDriftDrawsAreSeedDeterministic) {
  auto draw = [](std::uint64_t seed) {
    ScenarioBuilder builder;
    builder.params(ProtocolParams::for_n(7, Duration::millis(10)))
        .seed(seed)
        .join_stagger(Duration::millis(500))
        .drift_ppm_max(1000);
    return builder.scenario();
  };
  const Scenario a = draw(5);
  const Scenario b = draw(5);
  const Scenario c = draw(6);
  bool any_differs = false;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].join_time, b.nodes[i].join_time);
    EXPECT_EQ(a.nodes[i].clock_drift_ppm, b.nodes[i].clock_drift_ppm);
    EXPECT_LE(std::abs(a.nodes[i].clock_drift_ppm), 1000);
    any_differs = any_differs || a.nodes[i].join_time != c.nodes[i].join_time;
  }
  EXPECT_TRUE(any_differs) << "different seeds must draw different join times";
}

TEST(ScenarioBuilderTest, PerNodeOverrideDoesNotShiftOtherDraws) {
  // Fixing node 1's join time must leave nodes 0/2/3... with exactly the
  // draws they get without the override (the draw stream is consumed
  // unconditionally).
  ScenarioBuilder base;
  base.params(ProtocolParams::for_n(7, Duration::millis(10)))
      .seed(9)
      .join_stagger(Duration::millis(500));
  ScenarioBuilder tweaked = base;
  tweaked.node(1).join_time(TimePoint::origin());
  const Scenario a = base.scenario();
  const Scenario b = tweaked.scenario();
  EXPECT_EQ(b.nodes[1].join_time, TimePoint::origin());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    if (i == 1) continue;
    EXPECT_EQ(a.nodes[i].join_time, b.nodes[i].join_time) << "draw shifted at node " << i;
  }
}

TEST(ScenarioBuilderTest, BuilderIsCopyableAndReusable) {
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(4, Duration::millis(10)))
      .pacemaker("round-robin")
      .delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)))
      .seed(12);
  ScenarioBuilder copy = builder;
  copy.pacemaker("lumiere");
  EXPECT_EQ(builder.scenario().nodes[0].protocol.pacemaker, "round-robin");
  EXPECT_EQ(copy.scenario().nodes[0].protocol.pacemaker, "lumiere");
  // Two clusters from the same builder replay identically.
  Cluster first(builder);
  first.run_for(Duration::seconds(5));
  Cluster second(builder);
  second.run_for(Duration::seconds(5));
  EXPECT_EQ(first.metrics().total_honest_msgs(), second.metrics().total_honest_msgs());
}

// ---- asymmetric partitions and scheduled behavior changes ----------------

TEST(ScenarioBuilderTest, AsymPartitionValidatesGroupsAndNodeIds) {
  ScenarioBuilder builder;
  builder.asym_partition({0, 9}, {1, 1}, TimePoint::origin());
  const auto errors = builder.validate();
  ASSERT_EQ(errors.size(), 2U) << "out-of-range sender and duplicated receiver both reported";
  EXPECT_NE(errors[0].find("node id 9"), std::string::npos) << errors[0];
  EXPECT_NE(errors[1].find("twice in the receiver group"), std::string::npos) << errors[1];

  ScenarioBuilder empty_side;
  empty_side.asym_partition({0}, {}, TimePoint::origin());
  const auto empty_errors = empty_side.validate();
  ASSERT_EQ(empty_errors.size(), 1U);
  EXPECT_NE(empty_errors[0].find("receiver group must be non-empty"), std::string::npos)
      << empty_errors[0];

  // A node may sit on both sides (one-way self-isolation of its sends).
  ScenarioBuilder both_sides;
  both_sides.asym_partition({3}, {0, 1, 2, 3}, TimePoint::origin());
  EXPECT_TRUE(both_sides.validate().empty());
}

TEST(ScenarioBuilderTest, AsymPartitionKeepsTimelineOrderRule) {
  ScenarioBuilder builder;
  builder.asym_partition({0}, {1}, TimePoint(2'000));
  builder.heal(TimePoint(1'000));  // declared later, happens earlier
  const auto errors = builder.validate();
  ASSERT_EQ(errors.size(), 1U);
  EXPECT_NE(errors[0].find("timeline order"), std::string::npos) << errors[0];
}

TEST(ScenarioBuilderTest, BehaviorChangeValidatesNameAndNode) {
  ScenarioBuilder builder;
  builder.behavior_change(9, "mute", TimePoint::origin());
  builder.behavior_change(1, "gremlin", TimePoint(5));
  const auto errors = builder.validate();
  ASSERT_EQ(errors.size(), 2U);
  EXPECT_NE(errors[0].find("node id 9"), std::string::npos) << errors[0];
  EXPECT_NE(errors[1].find("unknown behavior \"gremlin\""), std::string::npos) << errors[1];
  EXPECT_NE(errors[1].find("silent-leader"), std::string::npos)
      << "the error must list the known behaviors: " << errors[1];
}

TEST(ScenarioBuilderTest, BehaviorChangeCannotTargetACrashedNode) {
  ScenarioBuilder builder;
  builder.crash(2, TimePoint(1'000));
  builder.behavior_change(2, "mute", TimePoint(2'000));  // still down
  builder.recover(2, TimePoint(3'000));
  const auto errors = builder.validate();
  ASSERT_EQ(errors.size(), 1U);
  EXPECT_NE(errors[0].find("crashed at that instant"), std::string::npos) << errors[0];

  // After the recover (and for churn windows alike) the change is legal.
  ScenarioBuilder after;
  after.crash(2, TimePoint(1'000));
  after.recover(2, TimePoint(3'000));
  after.behavior_change(2, "mute", TimePoint(4'000));
  EXPECT_TRUE(after.validate().empty());

  ScenarioBuilder churned;
  churned.churn(1, TimePoint(1'000), TimePoint(5'000));
  churned.behavior_change(1, "equivocator", TimePoint(2'000));  // inside the window
  const auto churn_errors = churned.validate();
  ASSERT_EQ(churn_errors.size(), 1U);
  EXPECT_NE(churn_errors[0].find("crashed at that instant"), std::string::npos)
      << churn_errors[0];
}

TEST(ScenarioBuilderTest, ScheduledBehaviorChangeCountsAgainstHonestAccounting) {
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(4, Duration::millis(10)));
  builder.delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)));
  builder.behavior_change(2, "silent-leader", TimePoint(Duration::seconds(1).ticks()));
  Cluster cluster(builder);
  // Ever-Byzantine is fixed pre-run: node 2 is excluded from the honest
  // set even before the flip fires (conservative, and stable wherever the
  // mask is queried).
  EXPECT_EQ(cluster.honest_ids().size(), 3U);
  EXPECT_TRUE(cluster.byzantine_mask()[2]);
  EXPECT_FALSE(cluster.node(2).is_byzantine()) << "the node itself flips only when the event fires";
  cluster.run_for(Duration::seconds(2));
  EXPECT_TRUE(cluster.node(2).is_byzantine());
}

TEST(ScenarioBuilderTest, ChangeBackToHonestKeepsTheNodeByzantineForAccounting) {
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(4, Duration::millis(10)));
  builder.delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)));
  builder.behavior_change(1, "mute", TimePoint(Duration::millis(500).ticks()));
  builder.behavior_change(1, "honest", TimePoint(Duration::seconds(1).ticks()));
  Cluster cluster(builder);
  cluster.run_for(Duration::seconds(2));
  EXPECT_TRUE(cluster.node(1).is_byzantine())
      << "a repentant node deviated earlier; accounting stays sticky";
  EXPECT_EQ(cluster.honest_ids().size(), 3U);
}

}  // namespace
}  // namespace lumiere::runtime
