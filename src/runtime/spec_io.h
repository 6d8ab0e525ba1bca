// Text formats for the multi-process soak cluster (tools/soak,
// tools/lumiere_node):
//
//   * ClusterSpec — the serialized scenario every replica process rebuilds
//     identically. One "key value" line per knob, behaviors one line per
//     non-honest node, terminated by "end". The orchestrator writes one
//     spec file; each lumiere_node reads it plus its own --id, so every
//     process derives byte-identical protocol stacks (same seed, same
//     leader schedules, same keys) without any runtime coordination.
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
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "consensus/ledger.h"
#include "runtime/scenario.h"

namespace lumiere::runtime {

/// Everything a replica process needs to rebuild its slice of the
/// cluster. Mirrors the ScenarioBuilder knobs the soak harness exercises;
/// deliberately NOT the full Scenario (no sim-only adversary state —
/// validate() rejects those on TCP anyway).
struct ClusterSpec {
  std::uint32_t n = 4;
  std::int64_t delta_us = 10'000;
  std::uint32_t x = 3;
  std::string pacemaker = "lumiere";
  std::string core = "simple-view";
  std::uint64_t seed = 1;
  std::string auth_scheme = "hmac";
  std::uint16_t tcp_base_port = 0;
  std::uint16_t status_base_port = 0;
  std::string admin_token;

  bool pipeline = false;
  std::uint32_t pipeline_workers = 4;
  std::uint32_t pipeline_queue = 1024;

  bool dissem = false;

  /// Client-driven workload on every node (the soak cluster always runs
  /// one — liveness oracles need committed requests to count).
  std::string arrival = "closed-loop";
  std::uint32_t clients_per_node = 2;
  double rate_per_client = 100.0;
  std::uint32_t in_flight = 4;
  std::uint64_t request_bytes = 64;

  /// Initial non-honest behaviors, node -> adversary::make_behavior name.
  std::map<ProcessId, std::string> behaviors;
};

/// Serializes to the "lumiere-scenario v1" line format.
[[nodiscard]] std::string serialize(const ClusterSpec& spec);

/// Parses a serialized spec. Returns nullopt with `error` set on a
/// malformed or unknown-versioned input.
[[nodiscard]] std::optional<ClusterSpec> parse_cluster_spec(const std::string& text,
                                                            std::string& error);

/// Expands the spec into a ready-to-validate builder for the full n-node
/// cluster (TCP transport). The in-process tests build a whole Cluster
/// from it; lumiere_node builds the same builder and runs one node.
[[nodiscard]] ScenarioBuilder to_builder(const ClusterSpec& spec);

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
