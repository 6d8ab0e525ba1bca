// Table 1 and Theorem 1.1 as checked claims.
//
// Each row states a claim of the paper, the quantity that measures it, and
// a band taken from theory; the sweep is n in {4, 13, 31}. The points are
// measured through runtime/experiment.h with the seeds and run lengths of
// bench_table1 --quick's growth and sync sections, so every point checked
// here is a row of that bench's artifact:
//
//   worst comm   most honest msgs in one of the first 10 decision windows,
//                worst permitted network, f silent leaders (seed 2001, 60 s)
//   ev comm      most honest msgs in one decision window after 10, delta =
//                0.5 ms, f_a = 1 silent leader (seed 2002, 20 s)
//   ev latency   the longest decision window of that run
//   sync msgs    mean msgs per view-sync span, per node, worst permitted
//                network (seed 1700 + n, 4n spans or 20 s)
//
// An exponent is the least-squares log-log slope over the sweep
// (obs::ComplexityLedger::fit_exponent). Three sizes this small still
// carry lower-order terms, so a bound O(n^k) admits an exponent up to
// k + kFitSlack and a Theta(n^k) demands at least k - kFitSlack. An
// exponent outside its band is a finding to explain, not a band to widen.
#include <array>
#include <cctype>
#include <limits>
#include <map>
#include <tuple>

#include <gtest/gtest.h>

#include "runtime/experiment.h"
#include "testutil/claims.h"

namespace lumiere::runtime {
namespace {

constexpr std::array<std::uint32_t, 3> kSizes = {4, 13, 31};
using testutil::kFitSlack;
constexpr double kNone = std::numeric_limits<double>::infinity();

enum class Quantity { kWorstComm, kEventualComm, kEventualLatencyMs, kSyncMsgs };

const char* name_of(Quantity quantity) {
  switch (quantity) {
    case Quantity::kWorstComm: return "worst_comm";
    case Quantity::kEventualComm: return "ev_comm_fa_1";
    case Quantity::kEventualLatencyMs: return "ev_lat_fa_1_ms";
    case Quantity::kSyncMsgs: return "sync_msgs_per_node";
  }
  return "?";
}

/// A gtest-safe row name: letters, digits and underscores.
std::string row_name(std::string name) {
  for (char& c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  }
  return name;
}

/// One point, measured once per test binary: the eventual run serves both
/// its comm and its latency.
double measure(const std::string& pacemaker, Quantity quantity, std::uint32_t n) {
  static std::map<std::tuple<std::string, Quantity, std::uint32_t>, double> points;
  const auto key = std::make_tuple(pacemaker, quantity, n);
  if (const auto it = points.find(key); it != points.end()) return it->second;
  switch (quantity) {
    case Quantity::kWorstComm:
      points[key] = static_cast<double>(
          measure_worst_case(worst_case_scenario(pacemaker, n, 2001), Duration::seconds(60))
              .comm.value_or(0));
      break;
    case Quantity::kEventualComm:
    case Quantity::kEventualLatencyMs: {
      const WindowMeasure eventual = measure_eventual(eventual_scenario(pacemaker, n, 1, 2002),
                                                      Duration::seconds(20), /*warmup=*/10);
      points[std::make_tuple(pacemaker, Quantity::kEventualComm, n)] =
          static_cast<double>(eventual.comm.value_or(0));
      points[std::make_tuple(pacemaker, Quantity::kEventualLatencyMs, n)] =
          static_cast<double>(eventual.latency.value_or(Duration::zero()).ticks()) / 1000.0;
      break;
    }
    case Quantity::kSyncMsgs:
      points[key] = measure_sync_cost(worst_case_scenario(pacemaker, n, 1700 + n), 4 * n,
                                      Duration::seconds(20))
                        .msgs.mean;
      break;
  }
  return points[key];
}

std::vector<std::pair<double, double>> sweep(const std::string& pacemaker, Quantity quantity) {
  std::vector<std::pair<double, double>> points;
  for (const std::uint32_t n : kSizes) points.emplace_back(n, measure(pacemaker, quantity, n));
  return points;
}

std::string describe(const std::vector<std::pair<double, double>>& points) {
  std::string out;
  for (const auto& [n, value] : points) {
    out += " n=" + std::to_string(static_cast<int>(n)) + ":" + std::to_string(value);
  }
  return out;
}

double exponent(const std::string& pacemaker, Quantity quantity) {
  return obs::ComplexityLedger::fit_exponent(sweep(pacemaker, quantity));
}

// ------------------------------------------------------------ growth bands

struct BandClaim {
  const char* claim;
  const char* source;
  const char* pacemaker;
  Quantity quantity;
  double min_exponent;  ///< -kNone: no lower bound
  double max_exponent;  ///< kNone: no upper bound
};

const BandClaim kBandClaims[] = {
    {"worst-case comm O(n^3)", "Table 1, Cogsworth, worst-case communication", "cogsworth",
     Quantity::kWorstComm, -kNone, 3 + kFitSlack},
    {"worst-case comm O(n^2)", "Table 1, LP22, worst-case communication", "lp22",
     Quantity::kWorstComm, -kNone, 2 + kFitSlack},
    {"worst-case comm O(n^2)", "Table 1, Lumiere, worst-case communication", "lumiere",
     Quantity::kWorstComm, -kNone, 2 + kFitSlack},
    {"eventual comm O(n f_a^2 + n), linear at f_a = 1",
     "Table 1, Cogsworth, eventual worst-case communication", "cogsworth",
     Quantity::kEventualComm, -kNone, 1 + kFitSlack},
    {"eventual comm Theta(n^2): an all-to-all epoch sync every epoch",
     "Table 1, LP22, eventual worst-case communication", "lp22", Quantity::kEventualComm,
     2 - kFitSlack, kNone},
    {"eventual comm Theta(n^2): without the success criterion every epoch syncs",
     "Section 3, Basic Lumiere (LP22's epoch sync under Fever's clocks)", "basic-lumiere",
     Quantity::kEventualComm, 2 - kFitSlack, kNone},
    {"eventual comm O(n f_a + n), linear at f_a = 1",
     "Table 1, Lumiere, eventual worst-case communication; Theorem 1.1 (4)", "lumiere",
     Quantity::kEventualComm, -kNone, 1 + kFitSlack},
};

void PrintTo(const BandClaim& row, std::ostream* os) {
  *os << row.pacemaker << " " << name_of(row.quantity);
}

class GrowthBand : public ::testing::TestWithParam<BandClaim> {};

TEST_P(GrowthBand, ExponentWithinTheoryBand) {
  const BandClaim& row = GetParam();
  const double measured = exponent(row.pacemaker, row.quantity);
  const std::string context = std::string(row.pacemaker) + " " + row.claim + " [" + row.source +
                              "]: " + name_of(row.quantity) + " ~ n^" +
                              std::to_string(measured) + " over" +
                              describe(sweep(row.pacemaker, row.quantity));
  EXPECT_GE(measured, row.min_exponent) << context;
  EXPECT_LE(measured, row.max_exponent) << context;
}

INSTANTIATE_TEST_SUITE_P(Table1Claims, GrowthBand, ::testing::ValuesIn(kBandClaims),
                         [](const ::testing::TestParamInfo<BandClaim>& info) {
                           return row_name(std::string(info.param.pacemaker) + "_" +
                                           name_of(info.param.quantity));
                         });

// --------------------------------------------------------------- orderings

struct OrderingClaim {
  const char* claim;
  const char* source;
  Quantity quantity;
  const char* steeper;  ///< its exponent must exceed the other's
  const char* flatter;
};

const OrderingClaim kOrderingClaims[] = {
    {"worst-case comm: n^3 grows faster than n^2",
     "Table 1, worst-case communication, Cogsworth vs LP22", Quantity::kWorstComm, "cogsworth",
     "lp22"},
    {"worst-case comm: n^3 grows faster than n^2",
     "Table 1, worst-case communication, Cogsworth vs Lumiere", Quantity::kWorstComm,
     "cogsworth", "lumiere"},
    // LP22's O(n Delta) is a stall of (position + 1) view times, maximal
    // when the silent leader holds an epoch's last view; epochs have f + 1
    // ~ n/3 views and the stall adds a constant, so at three small sizes the
    // exponent sits near 0.7, not 1. The separation from Lumiere is the claim.
    {"eventual latency: O(n Delta) grows, O(f_a Delta + delta) does not",
     "Table 1, eventual worst-case latency, LP22 vs Lumiere; Figure 1",
     Quantity::kEventualLatencyMs, "lp22", "lumiere"},
    // Spans are per node. LP22's all-to-all epoch sync costs each node ~n
    // messages; Lumiere's light sync costs each node O(1) and keeps the
    // heavy one for worst-case epochs.
    {"per-sync cost: LP22's epoch sync is quadratic cluster-wide, Lumiere's is not",
     "Section 3 (Lumiere's light view sync); Lewis-Pye's quadratic worst-case bound",
     Quantity::kSyncMsgs, "lp22", "lumiere"},
};

void PrintTo(const OrderingClaim& row, std::ostream* os) {
  *os << row.steeper << " over " << row.flatter << " " << name_of(row.quantity);
}

class GrowthOrdering : public ::testing::TestWithParam<OrderingClaim> {};

TEST_P(GrowthOrdering, SteeperProtocolGrowsFaster) {
  const OrderingClaim& row = GetParam();
  const double steeper = exponent(row.steeper, row.quantity);
  const double flatter = exponent(row.flatter, row.quantity);
  EXPECT_GT(steeper, flatter) << row.claim << " [" << row.source << "]: "
                              << name_of(row.quantity) << " " << row.steeper << " ~ n^"
                              << steeper << " over" << describe(sweep(row.steeper, row.quantity))
                              << ", " << row.flatter << " ~ n^" << flatter << " over"
                              << describe(sweep(row.flatter, row.quantity));
}

INSTANTIATE_TEST_SUITE_P(Table1Claims, GrowthOrdering, ::testing::ValuesIn(kOrderingClaims),
                         [](const ::testing::TestParamInfo<OrderingClaim>& info) {
                           return row_name(std::string(info.param.steeper) + "_over_" +
                                           info.param.flatter + "_" +
                                           name_of(info.param.quantity));
                         });

// ---------------------------------------------------------- absolute bound

// Theorem 1.1 (3), eventual worst-case latency O(f_a Delta + delta), as the
// constant it comes with: a silent leader holds at most two adjacent view
// pairs (where it ends one segment of the reverse-permutation schedule and
// starts the next), so one costs at most 4 Gamma at every n — the bound
// Figure1Test.LumiereDeadTimeBoundedInN uses. Whether the 20 s run holds
// such an adjacency is chance (1/n per epoch bridge, 1/n^2 per other
// segment boundary), which is why the measured gap steps from 4 Gamma at
// n <= 13 to 2 Gamma at n = 31: an exponent would read that step as
// shrinking latency.
TEST(Table1Claims, LumiereEventualLatencyWithinFourGammaAtEveryN) {
  for (const std::uint32_t n : kSizes) {
    const Duration gamma = default_gamma("lumiere", ProtocolParams::for_n(n, kTable1Delta));
    const Duration bound = gamma * 4 + Duration::millis(20);
    EXPECT_LE(measure("lumiere", Quantity::kEventualLatencyMs, n),
              static_cast<double>(bound.ticks()) / 1000.0)
        << "lumiere n=" << n << ": one silent leader must cost at most 4 Gamma";
  }
}

}  // namespace
}  // namespace lumiere::runtime
