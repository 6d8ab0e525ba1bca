#include "runtime/cluster.h"

#include <gtest/gtest.h>

#include "adversary/behaviors.h"
#include "runtime/experiment.h"

namespace lumiere::runtime {
namespace {

ScenarioBuilder small_options(std::uint64_t seed) {
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(4, Duration::millis(10)));
  options.pacemaker("lumiere");
  options.delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)));
  options.seed(seed);
  return options;
}

TEST(ClusterTest, DeterministicAcrossIdenticalRuns) {
  // Bit-for-bit reproducibility: same seed => identical decision logs and
  // message counts. The foundation of every experiment in this repo.
  auto run = [](std::uint64_t seed) {
    Cluster cluster(small_options(seed));
    cluster.run_for(Duration::seconds(10));
    return std::make_tuple(cluster.metrics().total_honest_msgs(),
                           cluster.metrics().decisions().size(),
                           cluster.metrics().decisions().empty()
                               ? TimePoint::origin()
                               : cluster.metrics().decisions().back().at,
                           cluster.max_honest_view());
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(std::get<0>(run(5)), 0U);
}

TEST(ClusterTest, DifferentSeedsDiverge) {
  auto decisions_at = [](std::uint64_t seed) {
    ScenarioBuilder options = small_options(seed);
    // Jittery delays so the seed matters.
    options.delay(std::make_shared<sim::UniformDelay>(Duration::micros(100), Duration::millis(5)));
    Cluster cluster(options);
    cluster.run_for(Duration::seconds(5));
    return cluster.metrics().total_honest_msgs();
  };
  EXPECT_NE(decisions_at(1), decisions_at(2));
}

TEST(ClusterTest, HonestIdsAndMask) {
  ScenarioBuilder options = small_options(9);
  options.behaviors(adversary::byzantine_set(
      {1}, [](ProcessId) { return std::make_unique<adversary::MuteBehavior>(); }));
  Cluster cluster(options);
  const auto honest = cluster.honest_ids();
  ASSERT_EQ(honest.size(), 3U);
  EXPECT_EQ(honest[0], 0U);
  EXPECT_EQ(honest[1], 2U);
  const auto mask = cluster.byzantine_mask();
  EXPECT_TRUE(mask[1]);
  EXPECT_FALSE(mask[0]);
  EXPECT_TRUE(cluster.node(1).is_byzantine());
}

TEST(ClusterTest, GapTrackerCoversHonestOnly) {
  ScenarioBuilder options = small_options(10);
  options.behaviors(adversary::byzantine_set(
      {3}, [](ProcessId) { return std::make_unique<adversary::MuteBehavior>(); }));
  Cluster cluster(options);
  EXPECT_EQ(cluster.honest_gap_tracker().count(), 3U);
}

TEST(ClusterTest, RunExperimentProducesMeasures) {
  // The Table 1 measurement: one silent leader among n = 4 on the benign
  // network; the eventual window skips the warmup, the worst-case window
  // starts at the origin.
  const WindowMeasure eventual =
      measure_eventual(eventual_scenario("lumiere", 4, 1, 11), Duration::seconds(20), 5);
  EXPECT_GE(eventual.decisions, 10U);
  ASSERT_TRUE(eventual.comm.has_value());
  EXPECT_GT(*eventual.comm, 0U);
  ASSERT_TRUE(eventual.latency.has_value());
  EXPECT_LE(*eventual.latency, Duration::millis(420)) << "one silent leader costs <= 4 Gamma";

  const WindowMeasure worst =
      measure_worst_case(worst_case_scenario("lumiere", 4, 11), Duration::seconds(20));
  ASSERT_TRUE(worst.comm.has_value());
  ASSERT_TRUE(worst.latency.has_value());
  EXPECT_GE(*worst.latency, kTable1Delta) << "every message takes Delta";
  EXPECT_GT(worst.epoch_view_msgs, 0U) << "the bootstrap epoch sync is heavy";

  const obs::LedgerSummary sync =
      measure_sync_cost(worst_case_scenario("lumiere", 4, 11), 16, Duration::seconds(20));
  EXPECT_GE(sync.spans, 1U);
  EXPECT_GT(sync.msgs.mean, 0.0);
}

TEST(ClusterTest, StartIsIdempotent) {
  Cluster cluster(small_options(12));
  cluster.start();
  cluster.start();  // second call must be a no-op, not a double-start
  cluster.run_for(Duration::seconds(2));
  EXPECT_GT(cluster.metrics().decisions().size(), 0U);
}

TEST(ClusterTest, TraceKeepsFaultScriptNotesPastEviction) {
  // A 30 s n = 7 run records more trace events than the ring holds, so
  // the partition's and the heal's events are evicted; their notes, the
  // one record of each fired script event, must stay.
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(7, Duration::millis(10)))
      .pacemaker("lumiere")
      .core("chained-hotstuff")
      .delay(std::make_shared<sim::FixedDelay>(Duration::micros(500)))
      .seed(1);
  builder.partition({{0, 1, 2}, {3, 4, 5, 6}}, TimePoint(Duration::seconds(4).ticks()));
  builder.heal(TimePoint(Duration::seconds(6).ticks()));
  Cluster cluster(builder);
  cluster.run_for(Duration::seconds(30));

  const sim::TraceLog& trace = cluster.trace();
  ASSERT_GT(trace.dropped(), 0U) << "the run must overflow the ring";
  EXPECT_TRUE(trace.of_kind(sim::TraceKind::kCustom).empty()) << "both note events evicted";
  ASSERT_EQ(trace.notes().size(), 2U);
  EXPECT_EQ(trace.notes()[0].at, TimePoint(Duration::seconds(4).ticks()));
  EXPECT_EQ(trace.notes()[1].at, TimePoint(Duration::seconds(6).ticks()));
}

}  // namespace
}  // namespace lumiere::runtime
