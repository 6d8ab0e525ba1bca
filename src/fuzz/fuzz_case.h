// FuzzCase: one fully sampled scenario-fuzz experiment, as plain data.
//
// A single 64-bit seed deterministically expands into a complete
// experiment, held as the runtime::ScenarioSpec every other scenario is
// described by (runtime/scenario.h): protocol combination (registry
// pacemaker x core), cluster size, topology/delay regime, clock drift,
// join stagger, a fault schedule (symmetric and asymmetric partitions,
// crashes, churn, delay changes, scheduled behavior changes), an
// assignment of Byzantine behaviors (at most f ever-Byzantine nodes), and
// an optional client workload. Beside the spec a case keeps only what the
// fuzzer itself needs: a printable name for the delay policy and the
// liveness window. The case is *data*, not code: the shrinker
// (fuzz/engine.h) mutates it (dropping events, behaviors, or nodes) and
// replays it through runtime::ScenarioBuilder(c.spec), and the fuzz_repro
// tool rebuilds the exact case from the seed plus the recorded deltas.
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

using runtime::BehaviorAssignment;

struct FuzzCase {
  /// The experiment. `spec.byzantine` lists the initially Byzantine nodes
  /// in sampling order (--drop-behaviors indexes it); `spec.schedule` is
  /// time-ordered; the workload, when sampled, stops at disruption_end.
  runtime::ScenarioSpec spec;
  /// The adversary's delay choice, for describe() ("worst" = nullptr:
  /// every message at max(GST, t) + Delta).
  std::string delay_desc = "worst";

  /// Every partition is healed and every crashed processor recovered by
  /// this instant; the liveness oracle's window starts here.
  std::int64_t disruption_end_us = 0;
  /// Progress must resume within this bound of disruption_end.
  std::int64_t liveness_bound_us = 0;

  [[nodiscard]] bool committing_core() const { return spec.protocol.core != "simple-view"; }
  [[nodiscard]] std::string protocol_combo() const {
    return spec.protocol.pacemaker + "/" + spec.protocol.core;
  }
};

/// Expands `seed` into a full experiment. Pure: same seed, same case.
[[nodiscard]] FuzzCase sample_case(std::uint64_t seed);

/// One-line human description (protocol, size, regime, events, behaviors).
[[nodiscard]] std::string describe(const FuzzCase& c);

}  // namespace lumiere::fuzz
