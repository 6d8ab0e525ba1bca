// Broad property sweeps: the per-run invariants of Section 2 (the BVS
// task) and Section 5 (the lemmas), checked eventwise over a grid of
// protocol x Byzantine-behavior x seed combinations. Where the invariant
// sweep in tests/core pins Lumiere's internals, this suite pins the
// *protocol-agnostic* contract every pacemaker must satisfy, and the
// honest-gap lemma under richer adversaries.
#include <gtest/gtest.h>

#include "adversary/behaviors.h"
#include "core/lumiere.h"
#include "runtime/cluster.h"

namespace lumiere::runtime {
namespace {

enum class Attack { kSilentLeader, kQcWithholder, kEquivocator, kEpochStorm, kSelectiveQc,
                    kCrashMidway };

const char* to_string(Attack a) {
  switch (a) {
    case Attack::kSilentLeader:
      return "silent_leader";
    case Attack::kQcWithholder:
      return "qc_withholder";
    case Attack::kEquivocator:
      return "equivocator";
    case Attack::kEpochStorm:
      return "epoch_storm";
    case Attack::kSelectiveQc:
      return "selective_qc";
    case Attack::kCrashMidway:
      return "crash_midway";
  }
  return "?";
}

std::unique_ptr<adversary::Behavior> make_attack(Attack a, const ProtocolParams& params) {
  switch (a) {
    case Attack::kSilentLeader:
      return std::make_unique<adversary::SilentLeaderBehavior>();
    case Attack::kQcWithholder:
      return std::make_unique<adversary::QcWithholderBehavior>();
    case Attack::kEquivocator:
      return std::make_unique<adversary::EquivocatorBehavior>();
    case Attack::kEpochStorm:
      return std::make_unique<adversary::EpochStormBehavior>(10 * params.n);
    case Attack::kSelectiveQc:
      return std::make_unique<adversary::SelectiveQcBehavior>(params.n / 2);
    case Attack::kCrashMidway:
      return std::make_unique<adversary::CrashBehavior>(
          TimePoint(Duration::seconds(5).ticks()));
  }
  return nullptr;
}

struct GridCase {
  std::string protocol;
  Attack attack;
  std::uint64_t seed;
};

class ProtocolAttackGrid : public ::testing::TestWithParam<GridCase> {};

/// Condition (1) of the BVS task — views never regress — plus liveness
/// under every attack, for every protocol, eventwise.
TEST_P(ProtocolAttackGrid, ViewMonotonicityAndLiveness) {
  const GridCase c = GetParam();
  const ProtocolParams params = ProtocolParams::for_n(7, Duration::millis(10));
  ScenarioBuilder options;
  options.params(params);
  options.pacemaker(c.protocol);
  options.seed(c.seed);
  options.delay(std::make_shared<sim::UniformDelay>(Duration::micros(200),
                                                      Duration::millis(4)));
  options.behaviors(adversary::byzantine_set(
      {5, 6}, [&, a = c.attack](ProcessId) { return make_attack(a, params); }));
  Cluster cluster(options);
  cluster.start();

  std::vector<View> last_view(7, -1);
  const TimePoint deadline = TimePoint::origin() + Duration::seconds(30);
  while (!cluster.sim().idle() && cluster.sim().now() < deadline) {
    cluster.sim().step();
    for (const ProcessId id : cluster.honest_ids()) {
      const View v = cluster.node(id).current_view();
      ASSERT_GE(v, last_view[id]) << "view regressed at node " << id << " under "
                                  << to_string(c.attack);
      last_view[id] = v;
    }
  }
  EXPECT_GE(cluster.metrics().decisions().size(), 5U)
      << c.protocol << " starved under "
      << to_string(c.attack);
}

std::vector<GridCase> grid_cases() {
  std::vector<GridCase> cases;
  std::uint64_t seed = 500;
  for (const std::string protocol :
       {"cogsworth", "nk20", "raresync",
        "lp22", "fever", "basic-lumiere",
        "lumiere"}) {
    for (const Attack attack :
         {Attack::kSilentLeader, Attack::kQcWithholder, Attack::kEquivocator,
          Attack::kEpochStorm, Attack::kSelectiveQc, Attack::kCrashMidway}) {
      cases.push_back({protocol, attack, seed++});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, ProtocolAttackGrid, ::testing::ValuesIn(grid_cases()),
                         [](const ::testing::TestParamInfo<GridCase>& info) {
                           std::string name =
                               info.param.protocol;
                           for (auto& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name + "_" + to_string(info.param.attack);
                         });

// ---------------------------------------------------------------------
// Lemma 5.9(2): within an epoch, hg_{f+1} does not increase except to a
// value below Gamma — i.e. hg(t') <= max(hg(t), Gamma) for t < t' inside
// the epoch. Checked eventwise whenever all honest processors agree on
// the epoch (a sound subinterval of [start_e, end_e]), under a mix of
// faults and jittery delays.
// ---------------------------------------------------------------------

struct GapCase {
  std::uint64_t seed;
  std::uint32_t byzantine;
};

class GapLemmaSweep : public ::testing::TestWithParam<GapCase> {};

TEST_P(GapLemmaSweep, HonestGapNeverGrowsAboveItselfOrGamma) {
  const GapCase c = GetParam();
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(7, Duration::millis(10)));
  options.pacemaker("lumiere");
  options.seed(c.seed);
  options.delay(std::make_shared<sim::UniformDelay>(Duration::micros(100),
                                                      Duration::millis(6)));
  if (c.byzantine > 0) {
    std::vector<ProcessId> byz;
    for (ProcessId id = 0; id < c.byzantine; ++id) byz.push_back(id);
    options.behaviors(adversary::byzantine_set(
        byz, [](ProcessId) { return std::make_unique<adversary::SilentLeaderBehavior>(); }));
  }
  Cluster cluster(options);
  cluster.start();

  const ProtocolParams& params = cluster.scenario().params;
  const Duration gamma = core::LumierePacemaker::default_gamma(params);
  const auto tracker = cluster.honest_gap_tracker();
  const std::uint32_t fplus1 = params.f + 1;

  auto honest_epoch_consensus = [&]() -> std::optional<Epoch> {
    std::optional<Epoch> common;
    for (const ProcessId id : cluster.honest_ids()) {
      const auto& pm = static_cast<const core::LumierePacemaker&>(cluster.node(id).pacemaker());
      if (pm.parked()) return std::nullopt;  // boundary transition in progress
      const Epoch e = pm.current_epoch();
      if (common && *common != e) return std::nullopt;
      common = e;
    }
    return common;
  };

  bool tracking = false;
  Epoch tracked_epoch = -1;
  Duration watermark = Duration::zero();
  std::uint64_t checks = 0;
  const TimePoint deadline = TimePoint::origin() + Duration::seconds(20);
  while (!cluster.sim().idle() && cluster.sim().now() < deadline) {
    cluster.sim().step();
    const auto epoch = honest_epoch_consensus();
    if (!epoch) {
      tracking = false;
      continue;
    }
    const Epoch current = *epoch;
    const Duration gap = tracker.gap(fplus1);
    if (!tracking || tracked_epoch != current) {
      tracking = true;
      tracked_epoch = current;
      watermark = gap;  // restart the within-epoch watermark
      continue;
    }
    // Lemma 5.9(2): gap <= max(previous watermark, Gamma).
    ASSERT_LE(gap, std::max(watermark, gamma))
        << "hg_{f+1} grew above both its prior value and Gamma inside epoch "
        << current;
    watermark = std::max(watermark, gap);
    ++checks;
  }
  EXPECT_GT(checks, 1000U) << "sweep too short to be meaningful";
}

INSTANTIATE_TEST_SUITE_P(SeedsAndFaults, GapLemmaSweep,
                         ::testing::Values(GapCase{21, 0}, GapCase{22, 1}, GapCase{23, 2},
                                           GapCase{24, 0}, GapCase{25, 2}, GapCase{26, 1}),
                         [](const ::testing::TestParamInfo<GapCase>& info) {
                           return "seed" + std::to_string(info.param.seed) + "_byz" +
                                  std::to_string(info.param.byzantine);
                         });

// ---------------------------------------------------------------------
// Lemma 5.15(1)+(2) in the steady state, across seeds: once an epoch has
// a timely start, every honest-led view pair decides and nobody sends
// epoch-view messages.
// ---------------------------------------------------------------------

class SteadyStateSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SteadyStateSweep, HeavySyncQuiescesAcrossSeeds) {
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(4, Duration::millis(10)));
  options.pacemaker("lumiere");
  options.seed(GetParam());
  options.delay(std::make_shared<sim::UniformDelay>(Duration::micros(300),
                                                      Duration::millis(2)));
  Cluster cluster(options);
  cluster.run_for(Duration::seconds(15));
  std::uint64_t sent = 0;
  for (const ProcessId id : cluster.honest_ids()) {
    sent += static_cast<const core::LumierePacemaker&>(cluster.node(id).pacemaker())
                .epoch_msgs_sent();
  }
  const std::uint64_t baseline = sent;
  cluster.run_for(Duration::seconds(30));
  sent = 0;
  for (const ProcessId id : cluster.honest_ids()) {
    sent += static_cast<const core::LumierePacemaker&>(cluster.node(id).pacemaker())
                .epoch_msgs_sent();
  }
  EXPECT_EQ(sent, baseline) << "heavy synchronization re-appeared after warmup";
  EXPECT_GE(cluster.metrics().decisions().size(), 100U);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SteadyStateSweep,
                         ::testing::Values(31ULL, 32ULL, 33ULL, 34ULL, 35ULL, 36ULL, 37ULL,
                                           38ULL));

}  // namespace
}  // namespace lumiere::runtime
