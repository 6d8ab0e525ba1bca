// FuzzCase: one fully sampled scenario-fuzz experiment, as plain data.
//
// A single 64-bit seed deterministically expands into a complete
// experiment: protocol combination (registry pacemaker x core), cluster
// size, topology/delay regime, clock drift, join stagger, a fault
// schedule (symmetric and asymmetric partitions, crashes, churn, delay
// changes, scheduled behavior changes), an assignment of Byzantine
// behaviors (at most f ever-Byzantine nodes), and an optional client
// workload. The case is *data*, not code: the shrinker (fuzz/engine.h)
// mutates it (dropping events, behaviors, or nodes) and replays, and the
// fuzz_repro tool rebuilds the exact case from the seed plus the recorded
// deltas.
//
// The generator keeps every case inside the envelope where the protocols
// *guarantee* recovery: all partitions heal and all crashed processors
// recover by `disruption_end`, at most f nodes are ever Byzantine, and
// delays (however adversarial) obey the partial-synchrony clamp — so the
// liveness oracle's "commit progress resumes within `liveness_bound` of
// the last disruption" is a theorem the implementation must uphold, not a
// hope.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/scenario.h"
#include "sim/fault_schedule.h"

namespace lumiere::fuzz {

/// One initially Byzantine node.
struct BehaviorAssignment {
  ProcessId node = kNoProcess;
  std::string behavior;  ///< adversary::make_behavior name
};

/// Client-workload shape (enabled iff clients > 0; committing cores only).
struct WorkloadChoice {
  std::uint32_t clients = 0;
  workload::Arrival arrival = workload::Arrival::kClosedLoop;
  double rate_per_client = 0.0;   ///< open-loop arrivals/s
  std::uint32_t in_flight = 0;    ///< closed-loop window
  std::size_t request_bytes = 64;
};

struct FuzzCase {
  std::uint64_t seed = 0;
  std::uint32_t n = 4;
  std::string pacemaker = "lumiere";
  std::string core = "chained-hotstuff";
  /// Topology preset name; empty = a sampled DelayPolicy instead.
  std::string topology;
  /// The adversary's delay choice when no topology preset is active
  /// (nullptr = the worst permitted: every message at max(GST, t) + Delta).
  std::shared_ptr<sim::DelayPolicy> delay;
  std::string delay_desc = "worst";  ///< for describe()
  std::int64_t delta_cap_us = 10'000;
  std::int64_t gst_us = 0;
  std::int64_t join_stagger_us = 0;
  std::int64_t drift_ppm_max = 0;

  std::vector<BehaviorAssignment> behaviors;
  /// Time-ordered scripted events (includes kAsymPartition and
  /// kBehaviorChange compositions).
  sim::FaultSchedule schedule;
  WorkloadChoice workload;
  /// Run the data-dissemination layer (src/dissem/): proposals order
  /// certified batch references. Only sampled when a workload is on.
  bool dissem = false;

  /// Every partition is healed and every crashed processor recovered by
  /// this instant; the liveness oracle's window starts here.
  std::int64_t disruption_end_us = 0;
  /// Progress must resume within this bound of disruption_end.
  std::int64_t liveness_bound_us = 0;

  [[nodiscard]] bool committing_core() const { return core != "simple-view"; }
  [[nodiscard]] std::string protocol_combo() const { return pacemaker + "/" + core; }
};

/// Expands `seed` into a full experiment. Pure: same seed, same case.
[[nodiscard]] FuzzCase sample_case(std::uint64_t seed);

/// Rebuilds the ScenarioBuilder for a (possibly shrunken) case.
[[nodiscard]] runtime::ScenarioBuilder to_builder(const FuzzCase& c);

/// One-line human description (protocol, size, regime, events, behaviors).
[[nodiscard]] std::string describe(const FuzzCase& c);

}  // namespace lumiere::fuzz
