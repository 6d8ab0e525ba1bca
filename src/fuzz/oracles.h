// Correctness oracles: reusable pass/fail checks over a finished Cluster
// run.
//
// Hand-written scenarios, the scenario fuzzer (fuzz/engine.h) and the
// soak judge (tools/soak) assert the same properties; the ledger checks
// live once, in data form, in fuzz/ledger_oracles.h, and the Cluster
// forms of safety and exactly-once below are adapters over them, so the
// callers cannot drift apart:
//   * safety           — no two honest ledgers conflict (pairwise prefix
//                        consistency by view and block hash);
//   * view monotonicity — condition (1) of the view-synchronization task,
//                        checked event-wise over the structured trace;
//   * liveness         — honest decision/commit progress resumes within a
//                        bound of a given instant (GST, or the last
//                        scripted disruption);
//   * exactly-once     — an admitted workload request commits at most
//                        once, and every observed commit matches a
//                        submission.
// View monotonicity and the two liveness forms read the trace and commit
// timestamps, which ledger dumps do not carry, so they stay Cluster-only.
//
// Every oracle returns std::nullopt when satisfied and a self-contained
// violation description otherwise (what failed, where, and the observed
// numbers) — the string a fuzz repro or a test failure message prints
// verbatim.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/time.h"
#include "fuzz/ledger_oracles.h"

namespace lumiere::runtime {
class Cluster;
}

namespace lumiere::fuzz {

/// The honest nodes' ledgers in data form. Each record shares its
/// committed block, so no payload byte is copied.
[[nodiscard]] std::vector<NodeLedgerData> ledger_data(const runtime::Cluster& cluster);

/// SAFETY: check_safety_data over ledger_data(cluster). Byzantine nodes
/// — including nodes scheduled to turn Byzantine mid-run — are excluded;
/// their ledgers carry no guarantee. Works on both transports.
[[nodiscard]] std::optional<std::string> check_safety(const runtime::Cluster& cluster);

/// VIEW MONOTONICITY: per node, the trace's view-entered events never
/// decrease. Sim transport only (the TCP trace is empty and passes
/// vacuously).
[[nodiscard]] std::optional<std::string> check_view_monotonicity(
    const runtime::Cluster& cluster);

/// DECISION LIVENESS: at least `min_decisions` decisions (honest-leader QC
/// formations, the paper's decision points) happened in
/// (from, from + bound]. The cluster must already have run past
/// from + bound. Works for every core, including the never-committing
/// simple-view.
[[nodiscard]] std::optional<std::string> check_decision_liveness(
    const runtime::Cluster& cluster, TimePoint from, Duration bound,
    std::size_t min_decisions = 1);

/// COMMIT LIVENESS: some honest ledger committed at least `min_commits`
/// blocks in (from, from + bound] — the SMR-output form of progress
/// (chained cores only; simple-view never commits). Works on both
/// transports (it reads ledgers, not the metrics collector).
[[nodiscard]] std::optional<std::string> check_commit_liveness(
    const runtime::Cluster& cluster, TimePoint from, Duration bound,
    std::size_t min_commits = 1);

/// EXACTLY-ONCE: check_exactly_once_data over each honest node's ledger,
/// resolving batch references through the node's disseminator; and the
/// merged client-side accounting observed no commit without a matching
/// submission. Vacuously true for runs without a client workload.
[[nodiscard]] std::optional<std::string> check_exactly_once(const runtime::Cluster& cluster);

}  // namespace lumiere::fuzz
