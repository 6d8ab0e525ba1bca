// The Table 1 measurement (Section 2): one (pacemaker, n, f_a, seed)
// point on the simulator, in the regime its column is stated for.
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
// bench_table1 and tests/integration/table1_claims_test.cpp measure
// through here, so a printed number and a checked one agree.
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

/// Makes processes 0 .. f_a-1 silent-leader Byzantine.
void add_silent_leaders(ScenarioBuilder& builder, std::uint32_t f_a);

/// The worst-case regime: GST at the origin, worst permitted network,
/// f = (n-1)/3 silent leaders.
[[nodiscard]] ScenarioBuilder worst_case_scenario(const std::string& pacemaker, std::uint32_t n,
                                                  std::uint64_t seed);

/// The eventual regime: FixedDelay(0.5 ms), f_a silent leaders.
[[nodiscard]] ScenarioBuilder eventual_scenario(const std::string& pacemaker, std::uint32_t n,
                                                std::uint32_t f_a, std::uint64_t seed);

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

/// Runs `scenario` in 2-second slices until `target_spans` sync spans
/// completed cluster-wide or `cap` elapsed, and summarizes the honest
/// nodes' spans. Spans are per node: one episode costs the cluster n times
/// its span's cost.
[[nodiscard]] obs::LedgerSummary measure_sync_cost(const ScenarioBuilder& scenario,
                                                   std::size_t target_spans, Duration cap);

}  // namespace lumiere::runtime
