// Bit-for-bit reproducibility: everything random in the library flows
// through the seeded Rng, and the simulator is single-threaded, so two
// clusters built from identical options must produce identical
// executions — the property every bench row and every fuzz seed replay
// (README "Scenario fuzzing") rests on.
#include <gtest/gtest.h>

#include "adversary/behaviors.h"
#include "runtime/cluster.h"

namespace lumiere::runtime {
namespace {

ScenarioBuilder busy_options(std::uint64_t seed) {
  const TimePoint gst(Duration::millis(300).ticks());
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(7, Duration::millis(10)));
  options.pacemaker("lumiere");
  options.core("chained-hotstuff");
  options.seed(seed);
  options.gst(gst);
  options.join_stagger(Duration::millis(200));
  options.drift_ppm_max(1'000);
  options.delay(std::make_shared<sim::PreGstChaosDelay>(
      gst, Duration::micros(200), Duration::millis(4), Duration::seconds(1)));
  options.behaviors(adversary::byzantine_set(
      {6}, [](ProcessId) { return std::make_unique<adversary::SilentLeaderBehavior>(); }));
  return options;
}

bool traces_equal(const sim::TraceLog& a, const sim::TraceLog& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a.events()[i];
    const auto& y = b.events()[i];
    if (x.at != y.at || x.kind != y.kind || x.node != y.node || x.view != y.view) return false;
  }
  return true;
}

TEST(DeterminismTest, IdenticalOptionsReplayIdentically) {
  Cluster first(busy_options(424242));
  first.run_for(Duration::seconds(10));
  Cluster second(busy_options(424242));
  second.run_for(Duration::seconds(10));

  // The full structured trace — every view entry, QC formation and commit
  // on every node, with timestamps — must match event for event.
  EXPECT_TRUE(traces_equal(first.trace(), second.trace()))
      << "same seed produced different executions (" << first.trace().size() << " vs "
      << second.trace().size() << " events)";
  EXPECT_EQ(first.metrics().total_honest_msgs(), second.metrics().total_honest_msgs());
  EXPECT_EQ(first.metrics().decisions().size(), second.metrics().decisions().size());
  for (ProcessId id = 0; id < 7; ++id) {
    EXPECT_TRUE(first.node(id).ledger().prefix_consistent_with(second.node(id).ledger()));
    EXPECT_EQ(first.node(id).ledger().size(), second.node(id).ledger().size());
  }
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  // Sanity check on the check: a different seed changes join times,
  // drift rates, delays and leader permutations — executions must not
  // coincide (if they did, the trace comparison above would be vacuous).
  Cluster first(busy_options(1));
  first.run_for(Duration::seconds(5));
  Cluster second(busy_options(2));
  second.run_for(Duration::seconds(5));
  EXPECT_FALSE(traces_equal(first.trace(), second.trace()));
}

// ---- fault-schedule edge cases -------------------------------------------
// Each scenario stresses one awkward corner of the schedule executor; all
// must replay bit-for-bit from the seed, like every other run.

ScenarioBuilder scheduled_options(std::uint64_t seed) {
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(7, Duration::millis(10)));
  options.pacemaker("lumiere");
  options.core("chained-hotstuff");
  options.seed(seed);
  options.delay(std::make_shared<sim::FixedDelay>(Duration::micros(500)));
  // Event at t = 0: the cluster boots already partitioned.
  options.partition({{0, 1, 2, 3}, {4, 5, 6}}, TimePoint::origin());
  // Two events at the same timestamp: heal + crash fire in declaration
  // order within one instant.
  options.heal(TimePoint(Duration::millis(400).ticks()));
  options.crash(5, TimePoint(Duration::millis(400).ticks()));
  options.recover(5, TimePoint(Duration::millis(900).ticks()));
  // Churn spanning a partition: node 6 leaves, a new partition forms,
  // and the node rejoins WHILE the partition is active.
  options.churn(6, TimePoint(Duration::seconds(1).ticks()),
                TimePoint(Duration::millis(2'400).ticks()));
  options.partition({{0, 1, 2}, {3, 4, 5}}, TimePoint(Duration::seconds(2).ticks()));
  options.heal(TimePoint(Duration::millis(2'800).ticks()));
  // Heal with no active partition: a defensive no-op.
  options.heal(TimePoint(Duration::seconds(3).ticks()));
  return options;
}

TEST(DeterminismTest, FaultScheduleEdgeCasesReplayIdentically) {
  Cluster first(scheduled_options(1337));
  first.run_for(Duration::seconds(8));
  Cluster second(scheduled_options(1337));
  second.run_for(Duration::seconds(8));

  EXPECT_TRUE(traces_equal(first.trace(), second.trace()))
      << "same seed + same schedule produced different executions ("
      << first.trace().size() << " vs " << second.trace().size() << " events)";
  EXPECT_EQ(first.metrics().total_honest_msgs(), second.metrics().total_honest_msgs());
  for (ProcessId id = 0; id < 7; ++id) {
    EXPECT_EQ(first.node(id).ledger().size(), second.node(id).ledger().size());
  }

  // The run made progress despite booting partitioned, and every scripted
  // event (2 from churn) left its note in the trace.
  EXPECT_GT(first.metrics().decisions().size(), 0U);
  EXPECT_EQ(first.trace().of_kind(sim::TraceKind::kCustom).size(), 9U);
  // The network ends healed with everyone readmitted.
  EXPECT_FALSE(first.network().partition_active());
  EXPECT_EQ(first.network().parked_count(), 0U);
  for (ProcessId id = 0; id < 7; ++id) EXPECT_FALSE(first.network().disconnected(id));
}

TEST(DeterminismTest, ChurnedNodeRejoinsDuringPartitionAndCatchesUp) {
  // Node 6 rejoins at 2.4s while {0,1,2}|{3,4,5} is cut (6 is in no
  // group, so it bridges nothing but talks to everyone); after the heal
  // it must converge with the cluster.
  Cluster cluster(scheduled_options(99));
  cluster.run_for(Duration::seconds(8));
  const View lo = cluster.min_honest_view();
  const View hi = cluster.max_honest_view();
  EXPECT_GT(lo, 0) << "cluster made no progress";
  EXPECT_LE(hi - lo, 2) << "churned node failed to catch up after rejoining";
}

TEST(DeterminismTest, ReplayIsSplitInvariant) {
  // run_for(10s) and run_for(5s)+run_for(5s) must be the same execution:
  // nothing may depend on how the driver slices simulated time.
  Cluster whole(busy_options(77));
  whole.run_for(Duration::seconds(10));
  Cluster split(busy_options(77));
  split.run_for(Duration::seconds(5));
  split.run_for(Duration::seconds(5));
  EXPECT_TRUE(traces_equal(whole.trace(), split.trace()));
}

}  // namespace
}  // namespace lumiere::runtime
