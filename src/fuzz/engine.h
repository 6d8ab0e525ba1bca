// The scenario-fuzz engine: run one sampled case against the oracle
// library, and shrink failures to minimal repros.
//
// run_case() expands a FuzzCase into a sim-transport Cluster, runs it
// past the last scripted disruption plus the liveness bound (with early
// exit once progress is observed — passing cases stay cheap), and checks
// every applicable oracle (fuzz/oracles.h). The result carries a SHA-256
// digest folded over the structured trace, every ledger and the message
// totals: two runs of the same case are byte-identical iff their digests
// match, which is how the determinism tests and fuzz_repro assert
// reproducibility.
//
// A failure shrinks greedily (shrink()): whole fault episodes (a
// partition and its heal travel together — dropping half would manufacture
// an un-healed network the oracles rightly reject), then behavior
// assignments, then cluster size (n -> the next smaller 3f' + 1, keeping
// only events and behaviors that still fit), re-running the predicate
// after every candidate drop and keeping it only while the case still
// fails. The minimal case is expressed as CaseDeltas — drops relative to
// sample_case(seed) — so one line
//   fuzz_repro --seed N [--drop-events i,j] [--drop-behaviors k] [--n M]
// rebuilds and replays it byte-identically.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "fuzz/fuzz_case.h"

namespace lumiere::fuzz {

struct RunResult {
  /// One self-contained description per violated oracle; empty = pass.
  std::vector<std::string> violations;
  /// SHA-256 over trace + ledgers + message totals: the run's identity.
  crypto::Digest digest;

  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Builds and runs `c` on the sim transport, then applies every oracle
/// that applies to the case (safety, view monotonicity and no-stall
/// always; commit- or decision-liveness depending on the core;
/// exactly-once when a workload ran).
[[nodiscard]] RunResult run_case(const FuzzCase& c);

/// Builds and runs `c` on the REAL TCP transport (localhost sockets,
/// wall-clock pacing). Simulator-only elements are stripped first:
/// topology presets, adversarial delay policies, GST and scripted delay
/// events cannot exist on real sockets, while partitions, crashes, churn
/// and behavior changes replay through their best-effort TCP analogues.
/// The digest is NOT comparable with run_case's (no structured trace,
/// wall-clock commit stamps, real scheduling); the *verdict* — which
/// oracles pass — is, and fuzz_repro --transport=tcp asserts exactly
/// that.
[[nodiscard]] RunResult run_case_tcp(const FuzzCase& c, std::uint16_t tcp_base_port);

/// A shrunken case, expressed as drops relative to sample_case(seed).
struct CaseDeltas {
  /// Indices into sample_case(seed).schedule.events to remove.
  std::vector<std::size_t> drop_events;
  /// Indices into sample_case(seed).behaviors to remove.
  std::vector<std::size_t> drop_behaviors;
  /// Shrunken cluster size: 0 keeps the sampled n, anything else must be
  /// at least 4 (ProtocolParams::for_n asserts it). Events and
  /// behaviors referencing nodes >= n are dropped; partition groups lose
  /// their out-of-range members (degenerate partitions are dropped).
  std::uint32_t n = 0;
  /// Disable the sampled client workload.
  bool drop_workload = false;
  /// Disable the sampled dissemination layer (keeping the workload).
  bool drop_dissem = false;

  [[nodiscard]] bool empty() const {
    return drop_events.empty() && drop_behaviors.empty() && n == 0 && !drop_workload &&
           !drop_dissem;
  }
};

/// Applies `deltas` to a freshly sampled case (pure; used by the
/// shrinker and by fuzz_repro's command line).
[[nodiscard]] FuzzCase apply_deltas(const FuzzCase& base, const CaseDeltas& deltas);

struct ShrinkResult {
  CaseDeltas deltas;
  FuzzCase minimal;       ///< apply_deltas(sample_case(seed), deltas)
  std::size_t attempts = 0;  ///< candidate cases executed while shrinking
};

/// Greedily minimizes the failing case sampled from `seed`:
/// `still_fails` must return true for the unshrunk case (and for any
/// candidate that preserves the failure). The default predicate is
/// !run_case(candidate).ok(). Deterministic; bounded by `max_attempts`
/// candidate runs.
[[nodiscard]] ShrinkResult shrink(
    std::uint64_t seed, const std::function<bool(const FuzzCase&)>& still_fails,
    std::size_t max_attempts = 200);

/// The one-line replay command for a shrunken case.
[[nodiscard]] std::string repro_line(std::uint64_t seed, const CaseDeltas& deltas);

/// Fault episodes: groups of schedule indices that must be dropped
/// together (partition+heal, crash+recover, leave+rejoin, a link-delay
/// override and its restore). Singleton events form their own group.
/// Exposed for the shrinker tests.
[[nodiscard]] std::vector<std::vector<std::size_t>> event_episodes(const FuzzCase& c);

}  // namespace lumiere::fuzz
