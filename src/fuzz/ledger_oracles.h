// Ledger oracles: the correctness checks over committed ledgers, in one
// data form. Each replica contributes one NodeLedgerData, whether it was
// downloaded from a separate process (tools/soak pulls every commit log
// through the status endpoint's LEDGER command) or read from an
// in-process Cluster (fuzz/oracles.h adapts a Cluster to this form). The
// tests, the fuzzer and the soak judge therefore run the same code.
//
// Two facts shape the checks:
//   * Every honest ledger extends genesis. A replica that lost history —
//     a crash window that swallowed proposals, an equivocation victim
//     holding the losing variant, a killed-and-restarted process —
//     backfills the missing ancestors through block sync (src/sync/)
//     before it commits past them. Safety is therefore index-aligned
//     prefix consistency, and a dump that starts mid-chain is itself a
//     violation.
//   * A restarted replica's workload clients restart their sequence
//     numbers, legitimately re-submitting (client, seq) tags that
//     committed before the crash. Exactly-once forgives duplicates whose
//     client belongs to a node marked `restarted`.
//
// Like fuzz/oracles.h, every check returns std::nullopt when satisfied
// and a self-contained violation string otherwise.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "dissem/batch.h"
#include "runtime/spec_io.h"

namespace lumiere::fuzz {

/// One node's commit log plus what the caller knows about the process
/// that produced it.
struct NodeLedgerData {
  ProcessId node = kNoProcess;
  /// Reported ever_byzantine (STATUS) or known from the disruption
  /// schedule — excluded from every guarantee.
  bool ever_byzantine = false;
  /// The process was killed and restarted: its workload clients re-use
  /// sequence numbers.
  bool restarted = false;
  std::vector<runtime::LedgerRecord> records;
};

/// SAFETY: every pair of honest ledgers is prefix-consistent, entry by
/// entry from genesis: same view, same block hash at every index both
/// hold.
[[nodiscard]] std::optional<std::string> check_safety_data(
    const std::vector<NodeLedgerData>& nodes);

/// VIEW MONOTONICITY (commit-order form): within each honest dump,
/// committed views strictly increase.
[[nodiscard]] std::optional<std::string> check_view_monotonicity_data(
    const std::vector<NodeLedgerData>& nodes);

/// The bytes of a committed batch reference as `node` resolved them, or
/// nullptr if it never did.
using BatchResolver =
    std::function<const std::vector<std::uint8_t>*(ProcessId node, const dissem::BatchId& id)>;

/// EXACTLY-ONCE: no honest ledger carries the same workload request
/// (client, seq) twice — except tags owned by a restarted node's
/// clients, which legitimately re-submit after the crash. Entries that
/// order dissemination references resolve through `resolve`: each
/// BatchId delivers once per node (re-ordering a reference in a later
/// block is legal), and a malformed or unresolved reference is itself a
/// violation. Without a resolver (raw dumps cannot resolve references)
/// such entries are skipped.
[[nodiscard]] std::optional<std::string> check_exactly_once_data(
    const std::vector<NodeLedgerData>& nodes, const BatchResolver& resolve = nullptr);

/// LIVENESS (progress form): the dump of `node` extends beyond
/// `min_view` — its newest committed view is strictly greater. The
/// orchestrator uses this to prove a restarted replica committed *new*
/// entries after rejoining (min_view = the cluster's max committed view
/// observed at restart time).
[[nodiscard]] std::optional<std::string> check_commit_progress_data(
    const std::vector<NodeLedgerData>& nodes, ProcessId node, View min_view);

/// The no-stall grace the fuzzer and the soak judge use: how many views
/// a replica that committed nothing may end behind the best honest one.
inline constexpr View kStallGraceViews = 8;

/// NO STALL: no honest replica is wedged. A replica is stalled when its
/// dump committed nothing past its `baseline_views` entry (its newest
/// committed view at an earlier instant) AND ends more than `grace`
/// views behind the best honest dump. A replica that is merely behind
/// keeps committing while it catches up; a wedged one flatlines while
/// its peers pull away. Replicas without a baseline are not judged.
/// Each stalled replica is also appended to `stalled` when given.
[[nodiscard]] std::optional<std::string> check_no_stall_data(
    const std::vector<NodeLedgerData>& nodes, const std::map<ProcessId, View>& baseline_views,
    View grace, std::vector<ProcessId>* stalled = nullptr);

/// Newest committed view of a dump (-1 when it is empty).
[[nodiscard]] View newest_view(const NodeLedgerData& node);

}  // namespace lumiere::fuzz
