// The paper's measurements: one (pacemaker, n, f_a, seed) point on the
// simulator, in the regime its claim is stated for. Table 1 (Section 2):
//
//   * worst case: GST at the origin, the worst permitted network (every
//     message takes max(GST, t) + Delta) and f silent leaders. The
//     costliest window lies in the warmup, which holds the heavy epoch
//     synchronization and the longest runs of faulty leaders.
//   * eventual: a benign network (delta = 0.5 ms << Delta) and f_a silent
//     leaders; the paper's lim sup discards any finite warmup, so the
//     first `warmup` inter-decision windows are skipped.
//   * per sync: the worst-case regime, priced per view-sync episode from
//     the honest nodes' SyncSpans (obs/).
//
// Figure 1, Section 3.5's selective-QC attack and Theorem 1.1 (4)'s
// warmup from GST have regimes of their own.
//
// bench_table1 and the claim tests in tests/integration measure through
// here, so a printed number and a checked one agree.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "obs/ledger.h"
#include "runtime/cluster.h"

namespace lumiere::runtime {

/// The known post-GST delivery bound of every Table 1 scenario.
inline constexpr Duration kTable1Delta = Duration::millis(10);

/// `pacemaker` over the simple-view core at size n: Delta = 10 ms, the
/// default x, the simulator's default network.
[[nodiscard]] ScenarioBuilder table1_scenario(const std::string& pacemaker, std::uint32_t n,
                                              std::uint64_t seed);

/// `pacemaker`'s default per-view budget Gamma: LP22's and RareSync's
/// (x+1) Delta, Fever's and Basic Lumiere's tenure-2 2(x+1) Delta,
/// Lumiere's 2(x+2) Delta; zero for a pacemaker without one.
[[nodiscard]] Duration default_gamma(const std::string& pacemaker, const ProtocolParams& params);

/// Makes processes 0 .. f_a-1 silent-leader Byzantine.
void add_silent_leaders(ScenarioBuilder& builder, std::uint32_t f_a);

/// The worst-case regime: GST at the origin, worst permitted network,
/// f = (n-1)/3 silent leaders.
[[nodiscard]] ScenarioBuilder worst_case_scenario(const std::string& pacemaker, std::uint32_t n,
                                                  std::uint64_t seed);

/// The eventual regime's actual network delay, delta << Delta.
inline constexpr Duration kEventualDelta = Duration::micros(500);

/// The eventual regime: FixedDelay(delta), f_a silent leaders.
[[nodiscard]] ScenarioBuilder eventual_scenario(const std::string& pacemaker, std::uint32_t n,
                                                std::uint32_t f_a, std::uint64_t seed,
                                                Duration delta = kEventualDelta);

/// Figure 1's regime: every message takes 0.2 ms and process 3 is a
/// silent leader.
[[nodiscard]] ScenarioBuilder figure1_scenario(const std::string& pacemaker, std::uint32_t n,
                                               std::uint64_t seed);

/// Section 3.5's selective-QC attack: FixedDelay(0.2 ms), and the last f
/// processes lead and vote but show their QCs and VCs only to the first
/// half of the cluster.
[[nodiscard]] ScenarioBuilder selective_qc_scenario(const std::string& pacemaker,
                                                    std::uint32_t n, std::uint64_t seed);

/// Theorem 1.1 (4)'s warmup regime: Lumiere, GST at 1 s, joins staggered
/// over 300 ms. Before GST messages take up to 2 s; after it either 0.5-2
/// ms or, on the worst network, exactly the Delta bound.
[[nodiscard]] ScenarioBuilder warmup_scenario(std::uint32_t n, std::uint64_t seed,
                                              bool worst_network);

/// The costliest inter-decision window of one run.
struct WindowMeasure {
  std::optional<std::uint64_t> comm;  ///< most honest messages in one window
  std::optional<Duration> latency;    ///< longest window
  std::size_t decisions = 0;
  std::uint64_t epoch_view_msgs = 0;  ///< heavy synchronization, whole run
};

/// Runs `scenario` for `run` and takes the max over the first `windows`
/// windows, counting origin -> first decision as the first.
[[nodiscard]] WindowMeasure measure_worst_case(const ScenarioBuilder& scenario, Duration run,
                                               std::size_t windows = 10);

/// Runs `scenario` for `run` and takes the max over the windows after the
/// first `warmup`.
[[nodiscard]] WindowMeasure measure_eventual(const ScenarioBuilder& scenario, Duration run,
                                             std::size_t warmup);

/// The way from GST to Lumiere's steady state, each time from GST.
struct WarmupMeasure {
  std::optional<Duration> quiescence;     ///< last epoch-view message (< 0: before GST)
  std::optional<Duration> first_success;  ///< first honest success criterion
  std::optional<Duration> first_decision;
};

/// Runs a Lumiere `scenario` until `after_gst` past its GST in 20 ms
/// slices, sampling the heavy-message count and the honest processors'
/// success trackers after each.
[[nodiscard]] WarmupMeasure measure_warmup(const ScenarioBuilder& scenario, Duration after_gst);

/// What the chain rule costs: node 0's ledger after one run.
struct CommitLag {
  std::size_t commits = 0;
  View frontier = -1;  ///< view of the last committed block
  double mean_ms = 0;  ///< mean QC -> commit lag of a committed block
};

/// Runs `scenario` for `run` and joins each block node 0 committed with
/// the decision that certified its view.
[[nodiscard]] CommitLag measure_commit_lag(const ScenarioBuilder& scenario, Duration run);

/// Runs `scenario` in 2-second slices until `target_spans` sync spans
/// completed cluster-wide or `cap` elapsed, and summarizes the honest
/// nodes' spans. Spans are per node: one episode costs the cluster n times
/// its span's cost.
[[nodiscard]] obs::LedgerSummary measure_sync_cost(const ScenarioBuilder& scenario,
                                                   std::size_t target_spans, Duration cap);

}  // namespace lumiere::runtime
