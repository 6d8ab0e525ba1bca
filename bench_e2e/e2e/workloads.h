// The benchmark's workloads and one measured run of each.
//
// Every workload runs Lumiere (Delta = 10 ms) over chained HotStuff with
// 64-byte client requests from two clients per node, 4 KiB batches and
// mempools deep enough that no request is shed. Clients stop before the
// run ends so the commit tail drains: a request that is submitted and
// never committed counts as failed. README.md gives the reason for each
// workload.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "e2e/metrics.h"

namespace lumiere::e2e {

struct WorkloadInfo {
  const char* name;
  std::uint32_t n;     ///< cluster size
  const char* scheme;  ///< authenticator scheme
  bool tcp;            ///< localhost TCP (wall clock) instead of the simulator
};

/// The workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<WorkloadInfo>& workloads();
[[nodiscard]] const WorkloadInfo* find_workload(const std::string& name);

struct RunConfig {
  const WorkloadInfo* workload = nullptr;
  std::uint64_t seed = 1;
  /// Sets the run length: the wall-clock length of a TCP run, and the
  /// simulated length of a sim run through a fixed per-workload ratio.
  double seconds = 10;
  /// Run under the timed:<name> protocol wrappers (e2e/timed.h).
  bool timed = false;
};

/// Wall seconds from Cluster construction to the first commit on an
/// honest node; nullopt when nothing commits within a generous bound.
[[nodiscard]] std::optional<double> time_setup(const RunConfig& config);

struct RunResult {
  /// What the run measures without spans, with the same names in every
  /// workload; a metric a workload cannot have (a recovery time without
  /// faults, simulator speed on TCP) reads 0.
  Metrics metrics;
  /// Per-layer calls and self times; empty unless the run was timed.
  Metrics spans;
  std::vector<Check> checks;
  double wall_s = 0;  ///< wall time of the run phase
  double cpu_s = 0;   ///< process CPU time (user + system) of the run phase
  std::uint64_t attempted = 0;  ///< requests the clients submitted
  std::uint64_t failed = 0;     ///< submitted but never committed (shed included)
  /// Simulated-time and count results; a passive trace leaves them equal.
  std::vector<std::pair<std::string, double>> fingerprint;
};

/// One measured run of a workload, advanced slice by slice. Between
/// slices the caller may do other work — time a set-up, advance another
/// run — which the run's own clocks leave out.
class Run {
 public:
  /// Builds the cluster. A sim run advances in `slices` equal steps of
  /// simulated time, which changes none of its results; a TCP run, whose
  /// clock is the wall clock, always in one.
  Run(const RunConfig& config, int slices);
  ~Run();
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  [[nodiscard]] int slices() const;
  [[nodiscard]] bool done() const;
  /// Runs the next slice.
  void advance();
  /// The finished run's metrics and checks.
  [[nodiscard]] RunResult result() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace lumiere::e2e
