// Ledger oracles (fuzz/ledger_oracles.h): the one implementation of the
// ledger checks that tools/soak runs over downloaded dumps and the
// Cluster oracles run over in-process ledgers. Every honest ledger is a
// prefix of one committed chain (block sync backfills any gap), so the
// checks compare entries index by index — exercised here on synthetic
// dumps with known defects.
#include "fuzz/ledger_oracles.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "ser/serializer.h"
#include "workload/request.h"

namespace lumiere::fuzz {
namespace {

crypto::Digest block_hash(View v) {
  const auto bytes = std::to_string(v);
  return crypto::Sha256::hash(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
}

using runtime::LedgerRecord;

/// A window [from, to] of the canonical synthetic chain (from = 0 is a
/// full prefix).
NodeLedgerData window(ProcessId node, View from, View to) {
  NodeLedgerData data;
  data.node = node;
  for (View v = from; v <= to; ++v) {
    data.records.push_back({v, block_hash(v), {}, {}});
  }
  return data;
}

/// Replaces entry `k`'s payload with `payload`.
void set_payload(NodeLedgerData& node, std::size_t k, std::vector<std::uint8_t> payload) {
  LedgerRecord& record = node.records[k];
  record = LedgerRecord::owning(record.view, record.hash, std::move(payload));
}

/// One mempool batch holding a single workload request.
std::vector<std::uint8_t> request_batch(std::uint32_t client, std::uint64_t seq) {
  const auto command = workload::Request::encode(client, seq, {});
  ser::Writer w;
  w.bytes(std::span<const std::uint8_t>(command.data(), command.size()));
  return std::move(w).take();
}

TEST(LedgerOraclesTest, SafetyPassesOnPrefixesOfDifferentLengths) {
  // Node 1 lags: its ledger is a shorter prefix of the same chain.
  const std::vector<NodeLedgerData> nodes = {window(0, 0, 12), window(1, 0, 9),
                                             window(2, 0, 0)};
  EXPECT_EQ(check_safety_data(nodes), std::nullopt);
}

TEST(LedgerOraclesTest, SafetyRejectsADumpThatStartsMidChain) {
  // A suffix window — a ledger that does not reach back to genesis — is
  // not a prefix of the chain, even though its entries agree with the
  // full ledger over their common views.
  const auto violation = check_safety_data({window(0, 0, 9), window(1, 4, 12)});
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("safety"), std::string::npos) << *violation;
}

TEST(LedgerOraclesTest, SafetyRejectsDisjointWindows) {
  const auto violation = check_safety_data({window(0, 0, 3), window(1, 6, 9)});
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("safety"), std::string::npos) << *violation;
}

TEST(LedgerOraclesTest, SafetyCatchesAFork) {
  auto a = window(0, 0, 9);
  auto b = window(1, 0, 9);
  b.records[5].hash = block_hash(999);  // same view, different block
  const auto violation = check_safety_data({a, b});
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("safety"), std::string::npos);
}

TEST(LedgerOraclesTest, SafetyCatchesAMissingInteriorEntry) {
  auto a = window(0, 0, 6);
  auto b = window(1, 0, 6);
  b.records.erase(b.records.begin() + 3);  // interior gap: not a prefix
  const auto violation = check_safety_data({a, b});
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("entry 3"), std::string::npos) << *violation;
}

TEST(LedgerOraclesTest, SafetyIgnoresByzantineDumps) {
  auto a = window(0, 0, 9);
  auto b = window(1, 0, 9);
  b.records[5].hash = block_hash(999);
  b.ever_byzantine = true;  // its dump is untrusted, not evidence
  EXPECT_EQ(check_safety_data({a, b}), std::nullopt);
}

TEST(LedgerOraclesTest, ViewMonotonicityCatchesRegression) {
  auto a = window(0, 0, 5);
  a.records.push_back({3, block_hash(3), {}, {}});  // commits view 3 after 5
  const auto violation = check_view_monotonicity_data({a});
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("monotonicity"), std::string::npos);
  a.ever_byzantine = true;
  EXPECT_EQ(check_view_monotonicity_data({a}), std::nullopt);
}

TEST(LedgerOraclesTest, ExactlyOnceCatchesDuplicateWithinOneDump) {
  NodeLedgerData node = window(0, 0, 2);
  set_payload(node, 0, request_batch(workload::client_id(2, 0), 7));
  set_payload(node, 2, request_batch(workload::client_id(2, 0), 7));  // same (client, seq)
  const auto violation = check_exactly_once_data({node});
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("exactly-once"), std::string::npos);
}

TEST(LedgerOraclesTest, ExactlyOnceIgnoresUntaggedPayloads) {
  NodeLedgerData node = window(0, 0, 1);
  set_payload(node, 0, {0xDE, 0xAD});  // not a workload batch
  set_payload(node, 1, {0xDE, 0xAD});
  EXPECT_EQ(check_exactly_once_data({node}), std::nullopt);
}

/// A signer-less aggregate over a one-process universe: the smallest
/// threshold signature the wire admits. The oracle resolves refs and
/// never verifies them.
crypto::ThresholdSig unsigned_sig() {
  crypto::ThresholdSig sig;
  sig.signers = SignerSet(1);
  return sig;
}

TEST(LedgerOraclesTest, ExactlyOnceResolvesBatchReferences) {
  const dissem::BatchId first{2, 1, block_hash(71)};
  const dissem::BatchId second{2, 2, block_hash(72)};
  const std::vector<std::uint8_t> batch = request_batch(workload::client_id(2, 0), 7);
  NodeLedgerData node = window(0, 0, 2);
  set_payload(node, 0, dissem::encode_refs({dissem::BatchCert(first, unsigned_sig())}));
  // Re-ordering a reference in a later block is legal: it delivers once.
  set_payload(node, 1, dissem::encode_refs({dissem::BatchCert(first, unsigned_sig())}));
  const BatchResolver resolve = [&](ProcessId, const dissem::BatchId& id) {
    return id == first || id == second ? &batch : nullptr;
  };
  EXPECT_EQ(check_exactly_once_data({node}, resolve), std::nullopt);

  // A different batch carrying the same request commits it twice.
  set_payload(node, 2, dissem::encode_refs({dissem::BatchCert(second, unsigned_sig())}));
  const auto twice = check_exactly_once_data({node}, resolve);
  ASSERT_TRUE(twice.has_value());
  EXPECT_NE(twice->find("twice"), std::string::npos) << *twice;

  // Without a resolver (raw dumps) reference entries are skipped.
  EXPECT_EQ(check_exactly_once_data({node}), std::nullopt);

  // A reference the node never resolved is a violation.
  const BatchResolver none = [](ProcessId, const dissem::BatchId&) {
    return static_cast<const std::vector<std::uint8_t>*>(nullptr);
  };
  const auto unresolved = check_exactly_once_data({node}, none);
  ASSERT_TRUE(unresolved.has_value());
  EXPECT_NE(unresolved->find("never resolved"), std::string::npos) << *unresolved;
}

TEST(LedgerOraclesTest, NoStallFlagsAFlatlinedNode) {
  // Node 2 committed nothing since its baseline at view 10 while its
  // peers moved on to view 40: wedged.
  const std::vector<NodeLedgerData> nodes = {window(0, 0, 40), window(1, 0, 38),
                                             window(2, 0, 10)};
  const std::map<ProcessId, View> baseline = {{0, 10}, {1, 10}, {2, 10}};
  std::vector<ProcessId> stalled;
  const auto violation = check_no_stall_data(nodes, baseline, kStallGraceViews, &stalled);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("node 2"), std::string::npos) << *violation;
  EXPECT_EQ(stalled, std::vector<ProcessId>{2});
}

TEST(LedgerOraclesTest, NoStallSparesANodeThatIsBehindButProgressing) {
  // Node 2 is 30 views behind, but it committed past its baseline: it is
  // catching up, not wedged.
  const std::vector<NodeLedgerData> nodes = {window(0, 0, 40), window(2, 0, 10)};
  const std::map<ProcessId, View> baseline = {{0, 20}, {2, 5}};
  std::vector<ProcessId> stalled;
  EXPECT_EQ(check_no_stall_data(nodes, baseline, kStallGraceViews, &stalled), std::nullopt);
  EXPECT_TRUE(stalled.empty());
}

TEST(LedgerOraclesTest, NoStallSparesANodeWithinTheGraceWindow) {
  // Node 1 committed nothing since its baseline, but it ends exactly
  // `grace` views behind the best ledger; one view further is a stall.
  const std::vector<NodeLedgerData> nodes = {window(0, 0, 20), window(1, 0, 12)};
  const std::map<ProcessId, View> baseline = {{0, 12}, {1, 12}};
  EXPECT_EQ(check_no_stall_data(nodes, baseline, 8), std::nullopt);
  EXPECT_TRUE(check_no_stall_data(nodes, baseline, 7).has_value());
}

TEST(LedgerOraclesTest, NoStallIgnoresByzantineAndUnbaselinedNodes) {
  auto flipped = window(1, 0, 2);
  flipped.ever_byzantine = true;
  const std::vector<NodeLedgerData> nodes = {window(0, 0, 40), flipped, window(2, 0, 2)};
  // Node 2 has no baseline (its status was unreachable): not judged.
  const std::map<ProcessId, View> baseline = {{0, 10}, {1, 2}};
  EXPECT_EQ(check_no_stall_data(nodes, baseline, kStallGraceViews), std::nullopt);
}

TEST(LedgerOraclesTest, CommitProgressRequiresGrowthBeyondWatermark) {
  const std::vector<NodeLedgerData> nodes = {window(1, 0, 10)};
  EXPECT_EQ(check_commit_progress_data(nodes, 1, 5), std::nullopt);
  EXPECT_TRUE(check_commit_progress_data(nodes, 1, 10).has_value());
  EXPECT_TRUE(check_commit_progress_data(nodes, 1, 15).has_value());
  EXPECT_TRUE(check_commit_progress_data(nodes, 3, 0).has_value()) << "no dump for node 3";
}

}  // namespace
}  // namespace lumiere::fuzz
