// The view-sync kit's ShareCollector and the bounded per-view state it
// gives every pacemaker.
#include "pacemaker/view_sync_kit.h"

#include <gtest/gtest.h>

#include "core/lumiere.h"
#include "crypto/auth_counters.h"
#include "runtime/cluster.h"
#include "testutil/pacemaker_harness.h"

namespace lumiere::pacemaker {
namespace {

using runtime::Cluster;
using runtime::ScenarioBuilder;

crypto::PartialSig wish_share(const testutil::PacemakerHarness& harness, ProcessId from, View v) {
  return crypto::threshold_share(harness.auth().signer_for(from), wish_statement(v));
}

TEST(ShareCollectorTest, CountsOncePerViewAndClosesAtThreshold) {
  testutil::PacemakerHarness harness(4);  // f = 1: threshold f+1 = 2
  crypto::AuthOpCounters ops;
  const crypto::AuthView auth(&harness.auth(), nullptr, &ops);
  ShareCollector wishes(auth, &wish_statement, harness.params().small_quorum());
  EXPECT_EQ(wishes.add(3, wish_share(harness, 1, 3)), 1U);
  EXPECT_EQ(wishes.add(3, wish_share(harness, 1, 3)), 0U) << "duplicate signer";
  EXPECT_EQ(wishes.add(3, wish_share(harness, 2, 3)), 2U);
  const SyncCert cert(3, wishes.aggregate(3));
  EXPECT_TRUE(cert.verify(harness.auth_view(), harness.params().small_quorum(), &wish_statement));
  // The view is closed: a further valid share is turned away unverified.
  const std::uint64_t verified = ops.snapshot().share_verifies;
  EXPECT_EQ(wishes.add(3, wish_share(harness, 3, 3)), 0U);
  EXPECT_EQ(ops.snapshot().share_verifies, verified);

  EXPECT_EQ(wishes.add(5, wish_share(harness, 1, 5)), 1U);
  EXPECT_EQ(wishes.size(), 2U);
  EXPECT_EQ(wishes.lowest(100), 3);
  wishes.prune_below(4);
  EXPECT_EQ(wishes.lowest(100), 5);
  wishes.erase(5);
  EXPECT_EQ(wishes.size(), 0U);
  EXPECT_EQ(wishes.lowest(100), 100);
}

TEST(ShareCollectorTest, RejectedSharesLeaveNothingBehind) {
  testutil::PacemakerHarness harness(4);
  ShareCollector wishes(harness.auth_view(), &wish_statement, harness.params().small_quorum());
  // 1,000 forged shares for distinct future views: each is signed over
  // the statement of the wrong view, so each fails verification.
  for (View v = 1; v <= 1000; ++v) {
    EXPECT_EQ(wishes.add(v, wish_share(harness, 1, v + 1)), 0U);
  }
  EXPECT_EQ(wishes.size(), 0U) << "a rejected share must not leave an empty aggregator";
  // The collector still certifies afterwards.
  EXPECT_EQ(wishes.add(500, wish_share(harness, 1, 500)), 1U);
  EXPECT_EQ(wishes.add(500, wish_share(harness, 2, 500)), 2U);
  const SyncCert cert(500, wishes.aggregate(500));
  EXPECT_TRUE(cert.verify(harness.auth_view(), harness.params().small_quorum(), &wish_statement));
}

// After hundreds of views (with a mute processor, so timeouts, wishes and
// epoch syncs all happen), no pacemaker holds per-view state below its
// current view — below the previous epoch's first view for Lumiere,
// whose deadline anchors and epoch shares live for one epoch.
class BoundedViewState : public ::testing::TestWithParam<std::string> {};

TEST_P(BoundedViewState, NothingHeldBelowTheCurrentView) {
  ScenarioBuilder options;
  options.params(ProtocolParams::for_n(4, Duration::millis(1)));
  options.pacemaker(GetParam());
  options.delay(std::make_shared<sim::FixedDelay>(Duration::micros(200)));
  options.seed(3);
  options.behaviors(adversary::byzantine_set(
      {3}, [](ProcessId) { return std::make_unique<adversary::MuteBehavior>(); }));
  Cluster cluster(options);
  for (int i = 0; i < 120 && cluster.min_honest_view() < 500; ++i) {
    cluster.run_for(Duration::millis(500));
  }
  ASSERT_GE(cluster.min_honest_view(), 500);
  for (ProcessId id = 0; id < 3; ++id) {
    const Pacemaker& pm = cluster.node(id).pacemaker();
    View floor = pm.current_view();
    if (GetParam() == "lumiere") {
      const auto& lumiere = static_cast<const core::LumierePacemaker&>(pm);
      floor = lumiere.math().epoch_first_view(lumiere.current_epoch()) -
              lumiere.math().views_per_epoch();
    }
    EXPECT_GE(pm.lowest_held_view(), floor) << GetParam() << " node " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPacemakers, BoundedViewState,
                         ::testing::Values("round-robin", "cogsworth", "nk20", "lp22",
                                           "raresync", "fever", "basic-lumiere", "lumiere"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (auto& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace lumiere::pacemaker
