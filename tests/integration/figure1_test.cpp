// Figure 1 as checked claims, on the points of bench_table1's fig1
// section (the longest decision window after the first 10 under
// figure1_scenario: n = 16 at seed 7001 for 45 s, n in {4, 31} at seeds 71
// and 72 for 60 s). LP22 never bumps clocks on QCs, so each epoch of f + 1
// views ends in a wait for the clock: its stall grows with n. Clock bumps
// cap Basic Lumiere's at one tenure (2 Gamma) and Lumiere's at two
// adjacent view pairs (4 Gamma), at every n.
#include <map>
#include <tuple>

#include <gtest/gtest.h>

#include "runtime/experiment.h"

namespace lumiere::runtime {
namespace {

/// The worst stall of one point, measured once per test binary.
Duration worst_stall(const std::string& pacemaker, std::uint32_t n, std::uint64_t seed,
                     Duration run = Duration::seconds(60)) {
  static std::map<std::tuple<std::string, std::uint32_t, std::uint64_t>, Duration> stalls;
  const auto key = std::make_tuple(pacemaker, n, seed);
  if (const auto it = stalls.find(key); it != stalls.end()) return it->second;
  const auto stall =
      measure_eventual(figure1_scenario(pacemaker, n, seed), run, /*warmup=*/10).latency;
  EXPECT_TRUE(stall.has_value()) << pacemaker << " n=" << n << " produced too few decisions";
  return stalls[key] = stall.value_or(Duration::zero());
}

Duration timeline_stall(const std::string& pacemaker) {
  return worst_stall(pacemaker, 16, 7001, Duration::seconds(45));
}

Duration gamma_of(const std::string& pacemaker) {
  return default_gamma(pacemaker, ProtocolParams::for_n(4, kTable1Delta));  // the same at any n
}

TEST(Figure1Test, Lp22DeadTimeGrowsLinearlyWithN) {
  const Duration small = worst_stall("lp22", 4, 71);   // f+1 = 2
  const Duration large = worst_stall("lp22", 31, 71);  // f+1 = 11
  EXPECT_GE(large, small * 3) << "LP22's single-fault stall must grow with n "
                              << "(small=" << small << ", large=" << large << ")";
  EXPECT_GE(large, Duration::millis(350)) << "n=31 stall should approach (f+1)*Gamma";
}

TEST(Figure1Test, Lp22StallIsItsEpoch) {
  // Figure 1, Table 1 (LP22, eventual worst-case latency O(n Delta)): the
  // boundary wait is (f+1) Gamma less the epoch's fast views, and a silent
  // first view adds one Gamma.
  const Duration gamma = gamma_of("lp22");
  for (const auto& [n, stall] : {std::pair{4U, worst_stall("lp22", 4, 71)},
                                 std::pair{16U, timeline_stall("lp22")},
                                 std::pair{31U, worst_stall("lp22", 31, 71)}}) {
    const std::uint32_t f = (n - 1) / 3;
    EXPECT_GE(stall, gamma * f) << "lp22 n=" << n << ": the stall is an epoch of f+1 views";
    EXPECT_LE(stall, gamma * (f + 2)) << "lp22 n=" << n << ": at most the epoch plus one view";
  }
}

TEST(Figure1Test, BasicLumiereStallIsOneTenure) {
  // Section 3.4: Fever's clock bumps leave a silent leader its two-view
  // tenure.
  EXPECT_LE(timeline_stall("basic-lumiere"), gamma_of("basic-lumiere") * 2 + Duration::millis(20));
}

TEST(Figure1Test, LumiereDeadTimeBoundedInN) {
  // Theorem 1.1 (3): a single faulty leader owns one view pair per
  // segment; the worst contiguous run is two adjacent pairs (segment
  // bridge) = 4 views = 4 * Gamma = 400ms, for every n.
  const Duration bound = gamma_of("lumiere") * 4 + Duration::millis(20);
  EXPECT_LE(worst_stall("lumiere", 4, 71), bound);
  EXPECT_LE(worst_stall("lumiere", 31, 71), bound) << "Lumiere's stall must not grow with n";
}

TEST(Figure1Test, Lp22OutlastsLumieresBoundFromN31) {
  // (f+1) Gamma_LP22 > 4 Gamma first at f = 10: LP22's stall stays under
  // Lumiere's 4 Gamma at n = 16 and passes it at n = 31.
  const Duration lumiere_bound = gamma_of("lumiere") * 4;
  EXPECT_LT(timeline_stall("lp22"), lumiere_bound) << "n=16: six 40 ms views";
  EXPECT_GT(worst_stall("lp22", 31, 71), lumiere_bound) << "n=31: eleven 40 ms views";
}

TEST(Figure1Test, AtScaleLumiereBeatsLp22) {
  // The paper's headline comparison at a size where the asymptotics bite.
  const Duration lp22 = worst_stall("lp22", 31, 72);
  const Duration lumiere = worst_stall("lumiere", 31, 72);
  EXPECT_LT(lumiere, lp22)
      << "one Byzantine leader must hurt LP22 more than Lumiere at n=31";
}

}  // namespace
}  // namespace lumiere::runtime
