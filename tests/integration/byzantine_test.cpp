// Liveness under the full Byzantine budget f, across fault flavors, and
// safety of the chained cores under active attackers. Progress and
// safety are asserted through the shared oracles (fuzz/oracles.h).
#include <gtest/gtest.h>

#include "adversary/behaviors.h"
#include "core/lumiere.h"
#include "runtime/cluster.h"
#include "testutil/oracles.h"

namespace lumiere::runtime {
namespace {

using testutil::oracle_ok;

ScenarioBuilder base_options(std::string kind, std::uint32_t n, std::uint64_t seed) {
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(n, Duration::millis(10)));
  options.pacemaker(kind);
  options.seed(seed);
  options.delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)));
  return options;
}

std::vector<ProcessId> first_f(std::uint32_t f) {
  std::vector<ProcessId> ids;
  for (ProcessId id = 0; id < f; ++id) ids.push_back(id);
  return ids;
}

struct ByzCase {
  std::string kind;
  const char* flavor;
};

class FullBudgetByzantine : public ::testing::TestWithParam<ByzCase> {};

TEST_P(FullBudgetByzantine, LiveWithFFaults) {
  const ByzCase c = GetParam();
  const std::uint32_t n = 7;  // f = 2
  ScenarioBuilder options = base_options(c.kind, n, 41);
  const std::string flavor = c.flavor;
  options.behaviors(adversary::byzantine_set(
      first_f(2), [flavor](ProcessId) -> std::unique_ptr<adversary::Behavior> {
        if (flavor == "mute") return std::make_unique<adversary::MuteBehavior>();
        if (flavor == "silent-leader")
          return std::make_unique<adversary::SilentLeaderBehavior>();
        if (flavor == "crash")
          return std::make_unique<adversary::CrashBehavior>(
              TimePoint(Duration::seconds(2).ticks()));
        return std::make_unique<adversary::QcWithholderBehavior>();
      }));
  Cluster cluster(options);
  cluster.run_for(Duration::seconds(120));
  EXPECT_TRUE(oracle_ok(fuzz::check_decision_liveness(cluster, TimePoint::origin(),
                                                      Duration::seconds(120), 8)))
      << c.kind << " with " << c.flavor << " faults stalled";
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FullBudgetByzantine,
    ::testing::Values(ByzCase{"lumiere", "mute"},
                      ByzCase{"lumiere", "silent-leader"},
                      ByzCase{"lumiere", "crash"},
                      ByzCase{"lumiere", "qc-withhold"},
                      ByzCase{"basic-lumiere", "mute"},
                      ByzCase{"basic-lumiere", "silent-leader"},
                      ByzCase{"lp22", "mute"},
                      ByzCase{"lp22", "silent-leader"},
                      ByzCase{"fever", "silent-leader"},
                      ByzCase{"cogsworth", "silent-leader"},
                      ByzCase{"nk20", "silent-leader"},
                      ByzCase{"round-robin", "mute"}),
    [](const ::testing::TestParamInfo<ByzCase>& info) {
      std::string name = info.param.kind + "_" + info.param.flavor;
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// ---- chained-core safety under active attackers --------------------------
// The matrix above exercises the view-sync layer; these pin the *cores*:
// an equivocating leader or a QC withholder must not fork (or wedge) the
// chained cores that actually commit blocks.

struct CoreAttack {
  const char* core;
  const char* behavior;  ///< adversary::make_behavior name
};

class ChainedCoreByzantine : public ::testing::TestWithParam<CoreAttack> {};

TEST_P(ChainedCoreByzantine, AttackerCannotViolateSafetyOrStallCommits) {
  const CoreAttack attack = GetParam();
  ScenarioBuilder options = base_options("lumiere", 7, 47);
  options.core(attack.core);
  const std::string behavior = attack.behavior;
  options.behaviors(adversary::byzantine_set(
      first_f(2), [behavior](ProcessId) { return adversary::make_behavior(behavior); }));
  Cluster cluster(options);
  cluster.run_for(Duration::seconds(60));

  EXPECT_TRUE(oracle_ok(fuzz::check_safety(cluster)))
      << attack.core << " under " << attack.behavior;
  EXPECT_TRUE(oracle_ok(fuzz::check_view_monotonicity(cluster)));
  EXPECT_TRUE(oracle_ok(fuzz::check_commit_liveness(cluster, TimePoint::origin(),
                                                    Duration::seconds(60), 3)))
      << attack.core << " stopped committing under " << attack.behavior;
}

INSTANTIATE_TEST_SUITE_P(
    Cores, ChainedCoreByzantine,
    ::testing::Values(CoreAttack{"chained-hotstuff", "equivocator"},
                      CoreAttack{"chained-hotstuff", "qc-withholder"},
                      CoreAttack{"hotstuff-2", "equivocator"},
                      CoreAttack{"hotstuff-2", "qc-withholder"}),
    [](const ::testing::TestParamInfo<CoreAttack>& info) {
      std::string name = std::string(info.param.core) + "_" + info.param.behavior;
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(ByzantineEdge, LumiereSilentLeaderDelayIsOfFaGammaNotN) {
  // Smooth optimistic responsiveness (Theorem 1.1 (3)): the worst
  // inter-decision gap with f_a silent leaders is O(f_a * Gamma) —
  // at most 4 * f_a * Gamma here, since each faulty leader owns a pair
  // of consecutive views in each of two adjacent segments in the worst
  // permutation placement — and crucially *independent of n*.
  const std::uint32_t f_a = 2;
  auto worst_gap = [&](std::uint32_t n, std::uint64_t seed) {
    ScenarioBuilder options = base_options("lumiere", n, seed);
    options.delay(std::make_shared<sim::FixedDelay>(Duration::micros(500)));
    options.behaviors(adversary::byzantine_set(first_f(f_a), [](ProcessId) {
      return std::make_unique<adversary::SilentLeaderBehavior>();
    }));
    Cluster cluster(options);
    cluster.run_for(Duration::seconds(120));
    const auto gap = cluster.metrics().max_decision_gap(TimePoint::origin(), /*warmup=*/40);
    EXPECT_TRUE(gap.has_value());
    return gap.value_or(Duration::zero());
  };

  // Gamma = 2(x+2) Delta, the same at both sizes.
  const Duration gamma =
      core::LumierePacemaker::default_gamma(ProtocolParams::for_n(7, Duration::millis(10)));
  const Duration bound = gamma * (4 * f_a) + Duration::millis(20);
  const Duration gap_small = worst_gap(7, 43);
  const Duration gap_large = worst_gap(13, 43);
  EXPECT_LE(gap_small, bound) << "n=7: delay must be O(f_a * Gamma)";
  EXPECT_LE(gap_large, bound) << "n=13: the bound must not grow with n";
}

TEST(ByzantineEdge, MixedStormStopsHeavySyncsAfterWarmup) {
  // examples/byzantine_storm: n = 10 with the full fault budget mixed (a
  // silent leader, a QC-withholder, an equivocator) and a late GST.
  // Section 3.5: after the warmup every epoch succeeds and skips the
  // heavy exchange. The QC-withholder hands its second QC to the next
  // leader alone, whose clock then runs past that leader's own second
  // view; unless its QC still moves it into that view, one epoch in
  // every one fails and the honest nodes send ~100 epoch-view messages.
  const TimePoint gst(Duration::seconds(1).ticks());
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(10, Duration::millis(10), /*x=*/4))
      .pacemaker("lumiere")
      .core("chained-hotstuff")
      .seed(99)
      .gst(gst)
      .join_stagger(Duration::millis(400))
      .delay(std::make_shared<sim::PreGstChaosDelay>(gst, Duration::micros(300),
                                                     Duration::millis(4), Duration::seconds(2)));
  builder.node(0).behavior([] { return std::make_unique<adversary::SilentLeaderBehavior>(); });
  builder.node(1).behavior([] { return std::make_unique<adversary::QcWithholderBehavior>(); });
  builder.node(2).behavior([] { return std::make_unique<adversary::EquivocatorBehavior>(); });
  Cluster cluster(builder);
  cluster.run_for(Duration::seconds(61));

  std::uint64_t heavy = 0;
  for (const ProcessId id : cluster.honest_ids()) {
    heavy += static_cast<const core::LumierePacemaker&>(cluster.node(id).pacemaker())
                 .epoch_msgs_sent();
  }
  EXPECT_LT(heavy, 10U) << "heavy epoch-view broadcasts by honest nodes";
  EXPECT_TRUE(oracle_ok(fuzz::check_safety(cluster)));
}

}  // namespace
}  // namespace lumiere::runtime
