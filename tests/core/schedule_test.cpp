#include "core/reverse_permutation_schedule.h"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "core/epoch_math.h"

namespace lumiere::core {
namespace {

TEST(ReversePermutationScheduleTest, LeaderPairsShareTenure) {
  const ReversePermutationSchedule schedule(7, 42);
  for (View v = 0; v < 200; v += 2) {
    EXPECT_EQ(schedule.leader_of(v), schedule.leader_of(v + 1));
  }
}

TEST(ReversePermutationScheduleTest, EachSegmentIsAPermutation) {
  const ReversePermutationSchedule schedule(7, 42);
  const EpochMath math(7, Duration::millis(10));
  for (std::int64_t segment = 0; segment < 12; ++segment) {
    std::map<ProcessId, int> counts;
    const View base = segment * math.views_per_segment();
    for (View v = base; v < base + math.views_per_segment(); ++v) {
      ++counts[schedule.leader_of(v)];
    }
    EXPECT_EQ(counts.size(), 7U) << "segment " << segment;
    for (const auto& [leader, count] : counts) {
      EXPECT_EQ(count, 2) << "leader " << leader << " in segment " << segment;
    }
  }
}

TEST(ReversePermutationScheduleTest, EpochBoundaryBridging) {
  // The paper's footnote: the last leader of epoch e is the first leader
  // of epoch e+1 (Lemma 5.13 depends on it).
  for (const std::uint32_t n : {4U, 7U, 13U}) {
    const ReversePermutationSchedule schedule(n, 99);
    const EpochMath math(n, Duration::millis(10));
    for (Epoch e = 0; e < 6; ++e) {
      const View last = math.epoch_first_view(e + 1) - 1;
      const View first_next = math.epoch_first_view(e + 1);
      EXPECT_EQ(schedule.leader_of(last), schedule.leader_of(first_next))
          << "epoch " << e << " -> " << e + 1 << " n=" << n;
    }
  }
}

TEST(ReversePermutationScheduleTest, EachLeaderLeadsTenViewsPerEpoch) {
  const std::uint32_t n = 5;
  const ReversePermutationSchedule schedule(n, 7);
  const EpochMath math(n, Duration::millis(10));
  for (Epoch e = 0; e < 3; ++e) {
    std::map<ProcessId, int> counts;
    for (View v = math.epoch_first_view(e); v < math.epoch_first_view(e + 1); ++v) {
      ++counts[schedule.leader_of(v)];
    }
    for (const auto& [leader, count] : counts) {
      EXPECT_EQ(count, EpochMath::kViewsPerLeaderPerEpoch)
          << "leader " << leader << " epoch " << e;
    }
  }
}

TEST(ReversePermutationScheduleTest, DeterministicInSeed) {
  const ReversePermutationSchedule a(7, 1);
  const ReversePermutationSchedule b(7, 1);
  const ReversePermutationSchedule c(7, 2);
  bool differs = false;
  for (View v = 0; v < 300; ++v) {
    EXPECT_EQ(a.leader_of(v), b.leader_of(v));
    differs |= a.leader_of(v) != c.leader_of(v);
  }
  EXPECT_TRUE(differs);
}

TEST(ReversePermutationScheduleTest, BoundedCacheMatchesAColdScheduleInAnyOrder) {
  // A fresh schedule answers from an empty cache, so it is the uncached
  // reference. 1200 segments at n = 5 cross 240 epoch boundaries.
  constexpr std::uint32_t kN = 5;
  constexpr std::uint64_t kSeed = 11;
  constexpr View kViews = 1200 * 2 * kN;
  const auto reference = [](View v) { return ReversePermutationSchedule(kN, kSeed).leader_of(v); };
  const ReversePermutationSchedule schedule(kN, kSeed);
  const auto check = [&](View v) {
    ASSERT_EQ(schedule.leader_of(v), reference(v)) << "view " << v;
    ASSERT_LE(schedule.cached_segments(), ReversePermutationSchedule::kCachedSegments);
  };
  for (View v = 0; v < kViews; ++v) check(v);
  for (View v = kViews - 1; v >= 0; --v) check(v);
  Rng rng(3);
  for (int i = 0; i < 20'000; ++i) check(static_cast<View>(rng.next_below(kViews)));
  EXPECT_EQ(schedule.cached_segments(), ReversePermutationSchedule::kCachedSegments);
}

TEST(ReversePermutationScheduleTest, MidEpochSegmentsVary) {
  // Within an epoch the permutations should not all coincide (they are
  // drawn independently) — a smoke check on randomization quality.
  const ReversePermutationSchedule schedule(16, 3);
  const auto& s0 = schedule.permutation_for(0);
  const auto& s1 = schedule.permutation_for(1);
  EXPECT_NE(s0, s1);
}

}  // namespace
}  // namespace lumiere::core
