// Text formats for the multi-process soak cluster (tools/soak,
// tools/lumiere_node):
//
//   * Spec file — the part of a runtime::ScenarioSpec (runtime/scenario.h)
//     that every replica process rebuilds identically. One "key value"
//     line per key of the table in spec_io.cpp: n, delta_us, x,
//     pacemaker, core, seed, auth_scheme, tcp_base_port,
//     status_base_port, admin_token (only when set), pipeline,
//     pipeline_workers, pipeline_queue, dissem, arrival,
//     clients_per_node, rate_per_client, in_flight, request_bytes, then
//     one "behavior <node> <name>" line per ScenarioSpec::byzantine
//     entry, terminated by "end". A key missing from a file keeps its
//     spec_file_defaults() value. The file describes a TCP cluster, so it
//     carries no sim-only state (delay policies, GST, topology) and no
//     fault schedule. The orchestrator writes one spec file; each
//     lumiere_node reads it plus its own --id, so every process derives
//     byte-identical protocol stacks (same seed, same leader schedules,
//     same keys) without any runtime coordination.
//
//   * Ledger dump — the admin LEDGER reply (obs/admin.h): one line per
//     committed entry carrying view, block hash and payload bytes, enough
//     for the ledger oracles (fuzz/ledger_oracles.h) to check safety and
//     exactly-once across processes that share no address space.
//
// Both formats are line-oriented ASCII: debuggable with nc(1), diffable,
// and versioned by their header line.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "consensus/ledger.h"
#include "runtime/scenario.h"

namespace lumiere::runtime {

/// What a spec file's missing keys keep: the TCP transport and, on every
/// node, a closed-loop workload of 2 clients x 4 in flight with 64-byte
/// requests (the soak cluster's: its liveness oracles need committed
/// requests to count). Everything else is the ScenarioSpec default.
[[nodiscard]] ScenarioSpec spec_file_defaults();

/// Prints the spec file's keys of `spec` in the "lumiere-scenario v1"
/// format. An absent workload prints as zero clients per node.
[[nodiscard]] std::string serialize(const ScenarioSpec& spec);

/// Parses a spec file onto spec_file_defaults(). Returns nullopt with
/// `error` set on a malformed, truncated or unknown-versioned input or
/// an unknown key. Values are checked only for their syntax:
/// ScenarioBuilder(spec).validate() reports the rest (n below 4, x below
/// 2, a behavior on a node outside the cluster).
[[nodiscard]] std::optional<ScenarioSpec> parse_spec(const std::string& text,
                                                     std::string& error);

/// One committed entry in the form the ledger oracles
/// (fuzz/ledger_oracles.h) read: the cross-process form of
/// consensus::CommittedEntry, without a commit timestamp (wall clocks are
/// not comparable across processes). `payload` views bytes that `owner`
/// keeps alive: the committed block itself for a record taken from an
/// in-process ledger, so no payload byte is copied; the decoded bytes for
/// a record parsed from a LEDGER dump.
struct LedgerRecord {
  View view = -1;
  crypto::Digest hash;
  std::span<const std::uint8_t> payload;
  std::shared_ptr<const void> owner;

  /// A record that owns `payload` (parsed dumps, synthetic test data).
  [[nodiscard]] static LedgerRecord owning(View view, const crypto::Digest& hash,
                                           std::vector<std::uint8_t> payload);
};

/// The records of an in-process ledger; each shares its committed block.
[[nodiscard]] std::vector<LedgerRecord> ledger_records(const consensus::Ledger& ledger);

/// Renders "ledger v1 <count>" + one "entry <view> <hash> <payload-hex>"
/// line per committed block + "END".
[[nodiscard]] std::string render_ledger(const consensus::Ledger& ledger);

/// Parses a LEDGER dump. Returns nullopt with `error` set on malformed
/// input (truncated dump, bad hex, count mismatch).
[[nodiscard]] std::optional<std::vector<LedgerRecord>> parse_ledger(const std::string& text,
                                                                    std::string& error);

}  // namespace lumiere::runtime
