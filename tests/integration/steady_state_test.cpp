// Lemma 5.15 / Theorem 1.1 (4): once an epoch has a timely start, every
// honest-leader view produces a QC, no epoch-view messages are sent, and
// the next epoch starts timely too — heavy synchronization stops forever.
#include <gtest/gtest.h>

#include <map>

#include "adversary/behaviors.h"
#include "consensus/messages.h"
#include "core/lumiere.h"
#include "pacemaker/messages.h"
#include "runtime/cluster.h"

namespace lumiere::runtime {
namespace {

const core::LumierePacemaker& lumiere_of(const Cluster& cluster, ProcessId id) {
  return static_cast<const core::LumierePacemaker&>(cluster.node(id).pacemaker());
}

TEST(SteadyStateTest, HeavySyncStopsAfterWarmup) {
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(7, Duration::millis(10)));
  options.pacemaker("lumiere");
  options.seed(51);
  options.delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)));
  Cluster cluster(options);

  // Warm up well past the bootstrap.
  cluster.run_for(Duration::seconds(20));
  const std::uint64_t heavy_after_warmup =
      cluster.metrics().count_for_type(pacemaker::kEpochViewMsg);
  ASSERT_GE(lumiere_of(cluster, 0).current_epoch(), 1);

  // From here on, zero epoch-view messages — across several more epochs.
  cluster.run_for(Duration::seconds(60));
  ASSERT_GE(lumiere_of(cluster, 0).current_epoch(), 3);
  EXPECT_EQ(cluster.metrics().count_for_type(pacemaker::kEpochViewMsg), heavy_after_warmup)
      << "heavy synchronization re-appeared in the steady state";
}

TEST(SteadyStateTest, EveryHonestLeaderViewProducesQc) {
  // All-honest steady state: count decisions per epoch; with n honest
  // leaders x 10 views each, every view of a warmed-up epoch yields a QC.
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(4, Duration::millis(10)));
  options.pacemaker("lumiere");
  options.seed(52);
  options.delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)));
  Cluster cluster(options);
  cluster.run_for(Duration::seconds(90));

  const auto& math = lumiere_of(cluster, 0).math();
  const Epoch current = lumiere_of(cluster, 0).current_epoch();
  ASSERT_GE(current, 2);
  // Examine one fully completed post-warmup epoch (epoch 1).
  std::set<View> decided_views;
  for (const auto& d : cluster.metrics().decisions()) {
    if (math.epoch_of(d.view) == 1) decided_views.insert(d.view);
  }
  EXPECT_EQ(static_cast<std::int64_t>(decided_views.size()), math.views_per_epoch())
      << "every view of a timely epoch must produce a QC (Lemma 5.15 (1))";
}

TEST(SteadyStateTest, EventualCommLinearInFaults) {
  // Theorem 1.1 (4): eventual worst-case communication O(n * f_a + n).
  // Compare steady-state per-decision message cost at f_a = 0 vs
  // f_a = f: both must be far below the n^2 of an epoch sync, and the
  // f_a = 0 cost must not include any epoch-view traffic.
  const std::uint32_t n = 10;  // f = 3
  auto run = [&](std::uint32_t f_a) {
    ScenarioBuilder options;
    options.params(ProtocolParams::for_n(n, Duration::millis(10)));
    options.pacemaker("lumiere");
    options.seed(53);
    options.delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)));
    if (f_a > 0) {
      std::vector<ProcessId> byz;
      for (ProcessId id = 0; id < f_a; ++id) byz.push_back(id);
      options.behaviors(adversary::byzantine_set(byz, [](ProcessId) {
        return std::make_unique<adversary::SilentLeaderBehavior>();
      }));
    }
    Cluster cluster(options);
    cluster.run_for(Duration::seconds(120));
    return cluster.metrics().max_msg_gap(TimePoint::origin(), /*warmup=*/60);
  };

  const auto fault_free = run(0);
  const auto with_faults = run(3);
  ASSERT_TRUE(fault_free.has_value());
  ASSERT_TRUE(with_faults.has_value());
  // The quadratic epoch sync would cost >= n*(n-1) = 90 messages by
  // itself; steady state must be well under that even with faults.
  EXPECT_LT(*fault_free, 60U) << "fault-free steady state should be ~4n per decision";
  EXPECT_LT(*with_faults, 200U) << "faulty steady state should be O(n * f_a)";
  EXPECT_GE(*with_faults, *fault_free) << "faults cannot make it cheaper";
}

/// Counts each view's QcMsg and NewView copies to another process,
/// passing every send on to the cluster's sinks through a SendTap.
class ConsensusCopies final : public sim::NetworkObserver {
 public:
  explicit ConsensusCopies(Cluster& cluster)
      : tap_(NodeSinks{&cluster.metrics(), cluster.sync_tracer(), nullptr}) {}

  void on_send(TimePoint at, ProcessId from, ProcessId to, const Message& msg) override {
    tap_.on_send(at, from, to, msg);
    if (msg.type_id() == consensus::kQcAnnounce) {
      ++qcs[static_cast<const consensus::QcMsg&>(msg).qc().view()];
    } else if (msg.type_id() == consensus::kNewView) {
      ++new_views[static_cast<const consensus::NewViewMsg&>(msg).view()];
    }
  }
  std::map<View, std::uint64_t> qcs;
  std::map<View, std::uint64_t> new_views;

 private:
  SendTap tap_;
};

TEST(SteadyStateTest, EachLeaderPairCostsOneQcBroadcastAndOneNewViewRound) {
  // Lumiere gives each leader two consecutive views. Once warmed up, the
  // first costs a NewView round, the second none (every replica enters
  // it through its proposal, which carries QC(first)); QC(second) leaves
  // as one QcMsg broadcast. So each pair sends n-1 copies of each.
  constexpr std::uint32_t kN = 31;
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(kN, Duration::millis(10)));
  options.pacemaker("lumiere");
  options.core("chained-hotstuff");
  options.seed(54);
  options.delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)));
  Cluster cluster(options);
  ConsensusCopies copies(cluster);
  cluster.network().set_observer(&copies);
  cluster.run_for(Duration::seconds(3));

  const auto& pacemaker = lumiere_of(cluster, 0);
  // From the second epoch on, up to the pairs still in flight.
  const View first = pacemaker.math().views_per_epoch();
  const View last = pacemaker.current_view() - 4;
  ASSERT_GE(last - first, 200) << "too few views after warm-up";
  for (View v = first; v + 1 <= last; v += 2) {
    ASSERT_EQ(pacemaker.leader_of(v), pacemaker.leader_of(v + 1)) << "views " << v << ", " << v + 1;
    const auto copies_of = [](const std::map<View, std::uint64_t>& counts, View view) {
      const auto it = counts.find(view);
      return it == counts.end() ? 0 : it->second;
    };
    EXPECT_EQ(copies_of(copies.qcs, v) + copies_of(copies.qcs, v + 1), kN - 1)
        << "QcMsg copies, views " << v << ", " << v + 1;
    EXPECT_EQ(copies_of(copies.new_views, v) + copies_of(copies.new_views, v + 1), kN - 1)
        << "NewView copies, views " << v << ", " << v + 1;
  }
}

}  // namespace
}  // namespace lumiere::runtime
