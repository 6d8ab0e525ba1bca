// Bounded clock drift (the Section 2/4 remark): the paper's analysis
// assumes lc(p) advances in real time after GST "for simplicity", and
// notes it extends to bounded drift. These tests check the implementation
// delivers that extension: liveness, steady-state quiescence and the
// honest-gap bound survive per-processor rate skews.
#include <gtest/gtest.h>

#include "adversary/behaviors.h"
#include "core/lumiere.h"
#include "pacemaker/messages.h"
#include "runtime/cluster.h"

namespace lumiere::runtime {
namespace {

struct DriftCase {
  std::int64_t ppm_max;
  std::uint32_t f_a;
};

class DriftLiveness : public ::testing::TestWithParam<DriftCase> {};

TEST_P(DriftLiveness, LumiereDecidesDespiteDrift) {
  const DriftCase c = GetParam();
  const TimePoint gst(Duration::millis(500).ticks());
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(7, Duration::millis(10)));
  options.pacemaker("lumiere");
  options.gst(gst);
  options.seed(55);
  options.join_stagger(Duration::millis(200));
  options.drift_ppm_max(c.ppm_max);
  options.delay(std::make_shared<sim::PreGstChaosDelay>(
      gst, Duration::micros(500), Duration::millis(3), Duration::seconds(2)));
  if (c.f_a > 0) {
    std::vector<ProcessId> byz;
    for (ProcessId id = 0; id < c.f_a; ++id) byz.push_back(id);
    options.behaviors(adversary::byzantine_set(
        byz, [](ProcessId) { return std::make_unique<adversary::SilentLeaderBehavior>(); }));
  }
  Cluster cluster(options);
  cluster.run_for(Duration::seconds(90));

  const auto first = cluster.metrics().latency_to_first_decision(gst);
  ASSERT_TRUE(first.has_value()) << "no decision after GST with drift " << c.ppm_max << "ppm";
  const std::size_t after =
      cluster.metrics().decisions().size() - cluster.metrics().first_decision_index_after(gst);
  EXPECT_GE(after, 50U) << "drift " << c.ppm_max << "ppm starved decisions";
}

INSTANTIATE_TEST_SUITE_P(Rates, DriftLiveness,
                         ::testing::Values(DriftCase{200, 0}, DriftCase{2'000, 0},
                                           DriftCase{20'000, 0}, DriftCase{2'000, 2},
                                           DriftCase{20'000, 2}),
                         [](const ::testing::TestParamInfo<DriftCase>& info) {
                           return "ppm" + std::to_string(info.param.ppm_max) + "_fa" +
                                  std::to_string(info.param.f_a);
                         });

TEST(ClockDriftTest, SteadyStateHonestGapStaysBoundedUnderDrift) {
  // Lemma 5.9's conclusion (hg_{f+1} <= Gamma once synchronized) gains a
  // drift term; with 1% skews it must still sit far below 2*Gamma.
  const ProtocolParams params = ProtocolParams::for_n(7, Duration::millis(10));
  ScenarioBuilder options;
  options.params(params);
  options.pacemaker("lumiere");
  options.seed(56);
  options.drift_ppm_max(10'000);
  options.delay(std::make_shared<sim::FixedDelay>(Duration::micros(500)));
  Cluster cluster(options);
  cluster.run_for(Duration::seconds(5));  // well past warmup

  const Duration gamma = core::LumierePacemaker::default_gamma(params);
  const auto tracker = cluster.honest_gap_tracker();
  for (int sample = 0; sample < 40; ++sample) {
    cluster.run_for(Duration::millis(250));
    EXPECT_LE(tracker.gap(params.f + 1), gamma * 2)
        << "honest gap exploded at sample " << sample;
  }
}

TEST(ClockDriftTest, HeavySyncStillQuiescesUnderDrift) {
  // The steady-state mechanism (Section 3.5) must keep working: after
  // warmup, drifted clocks do not reintroduce heavy epoch changes.
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(7, Duration::millis(10)));
  options.pacemaker("lumiere");
  options.seed(57);
  options.drift_ppm_max(5'000);
  options.delay(std::make_shared<sim::FixedDelay>(Duration::micros(500)));
  Cluster cluster(options);
  cluster.run_for(Duration::seconds(20));
  const auto heavy_after_warmup = cluster.metrics().count_for_type(pacemaker::kEpochViewMsg);
  cluster.run_for(Duration::seconds(40));
  EXPECT_EQ(cluster.metrics().count_for_type(pacemaker::kEpochViewMsg), heavy_after_warmup)
      << "drift re-triggered heavy epoch synchronization in the steady state";
}

TEST(ClockDriftTest, DriftAssignmentIsDeterministicBySeed) {
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(4, Duration::millis(10)));
  options.pacemaker("lumiere");
  options.seed(58);
  options.drift_ppm_max(1'000);
  Cluster a(options);
  Cluster b(options);
  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_EQ(a.node(id).local_clock().drift_ppm(), b.node(id).local_clock().drift_ppm());
    EXPECT_LE(std::abs(a.node(id).local_clock().drift_ppm()), 1'000);
  }
}

}  // namespace
}  // namespace lumiere::runtime
