#include "fuzz/ledger_oracles.h"

#include <algorithm>
#include <set>
#include <span>
#include <sstream>
#include <utility>

#include "consensus/mempool.h"
#include "workload/request.h"

namespace lumiere::fuzz {

View newest_view(const NodeLedgerData& node) {
  return node.records.empty() ? View{-1} : node.records.back().view;
}

std::optional<std::string> check_safety_data(const std::vector<NodeLedgerData>& nodes) {
  // Pairwise prefix consistency holds exactly when every honest ledger
  // is a prefix of the longest one, so one pass against it suffices.
  const NodeLedgerData* longest = nullptr;
  for (const NodeLedgerData& node : nodes) {
    if (node.ever_byzantine) continue;
    if (longest == nullptr || node.records.size() > longest->records.size()) longest = &node;
  }
  for (const NodeLedgerData& node : nodes) {
    if (node.ever_byzantine || &node == longest) continue;
    for (std::size_t k = 0; k < node.records.size(); ++k) {
      const runtime::LedgerRecord& a = node.records[k];
      const runtime::LedgerRecord& b = longest->records[k];
      if (a.view != b.view || a.hash != b.hash) {
        std::ostringstream out;
        out << "safety: ledger fork between honest nodes " << node.node << " ("
            << node.records.size() << " entries) and " << longest->node << " ("
            << longest->records.size() << " entries): entry " << k << " is view " << a.view
            << " (" << a.hash.hex().substr(0, 12) << ") vs view " << b.view << " ("
            << b.hash.hex().substr(0, 12) << ")";
        return out.str();
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_view_monotonicity_data(
    const std::vector<NodeLedgerData>& nodes) {
  for (const NodeLedgerData& node : nodes) {
    if (node.ever_byzantine) continue;
    for (std::size_t k = 1; k < node.records.size(); ++k) {
      if (node.records[k].view <= node.records[k - 1].view) {
        std::ostringstream out;
        out << "view monotonicity: node " << node.node << " committed view "
            << node.records[k].view << " after view " << node.records[k - 1].view << " (entries "
            << (k - 1) << ", " << k << ")";
        return out.str();
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_exactly_once_data(const std::vector<NodeLedgerData>& nodes,
                                                   const BatchResolver& resolve) {
  std::set<std::uint32_t> restarted_nodes;
  for (const NodeLedgerData& node : nodes) {
    if (node.restarted) restarted_nodes.insert(node.node);
  }
  for (const NodeLedgerData& node : nodes) {
    if (node.ever_byzantine) continue;
    std::map<std::pair<std::uint32_t, std::uint64_t>, std::size_t> seen;
    std::set<dissem::BatchId> delivered;
    for (std::size_t index = 0; index < node.records.size(); ++index) {
      const std::span<const std::uint8_t> payload = node.records[index].payload;
      std::vector<std::span<const std::uint8_t>> batches;
      if (!dissem::is_refs_payload(payload)) {
        batches.push_back(payload);
      } else if (resolve) {
        const auto refs = dissem::decode_refs(payload);
        if (!refs) {
          std::ostringstream out;
          out << "exactly-once: node " << node.node << " committed a malformed refs payload "
              << "(entry " << index << ")";
          return out.str();
        }
        for (const dissem::BatchCert& cert : *refs) {
          if (!delivered.insert(cert.id()).second) continue;  // delivers once
          const std::vector<std::uint8_t>* bytes = resolve(node.node, cert.id());
          if (bytes == nullptr) {
            std::ostringstream out;
            out << "exactly-once: node " << node.node << " committed a batch reference (origin "
                << cert.id().origin << ", seq " << cert.id().seq
                << ") it never resolved (entry " << index << ")";
            return out.str();
          }
          batches.emplace_back(*bytes);
        }
      }
      for (const auto& batch : batches) {
        for (const auto& command : consensus::Mempool::split_batch(batch)) {
          const auto request = workload::Request::decode(command);
          if (!request) continue;  // not a tagged workload request
          // A restarted replica's clients restart their sequence numbers,
          // so their pre-crash tags legitimately commit a second time.
          if (restarted_nodes.contains(workload::client_node(request->client))) continue;
          const auto [it, inserted] =
              seen.emplace(std::make_pair(request->client, request->seq), index);
          if (!inserted) {
            std::ostringstream out;
            out << "exactly-once: node " << node.node << " committed request (client "
                << request->client << ", seq " << request->seq << ") twice (entries "
                << it->second << " and " << index << ")";
            return out.str();
          }
        }
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_commit_progress_data(const std::vector<NodeLedgerData>& nodes,
                                                      ProcessId node, View min_view) {
  for (const NodeLedgerData& data : nodes) {
    if (data.node != node) continue;
    if (newest_view(data) > min_view) return std::nullopt;
    std::ostringstream out;
    out << "progress: node " << node << " newest committed view is " << newest_view(data)
        << " — expected beyond view " << min_view;
    return out.str();
  }
  std::ostringstream out;
  out << "progress: no ledger dump for node " << node;
  return out.str();
}

std::optional<std::string> check_no_stall_data(const std::vector<NodeLedgerData>& nodes,
                                               const std::map<ProcessId, View>& baseline_views,
                                               View grace, std::vector<ProcessId>* stalled) {
  View best = -1;
  for (const NodeLedgerData& node : nodes) {
    if (!node.ever_byzantine) best = std::max(best, newest_view(node));
  }
  std::optional<std::string> violation;
  for (const NodeLedgerData& node : nodes) {
    const auto baseline = baseline_views.find(node.node);
    if (node.ever_byzantine || baseline == baseline_views.end()) continue;
    const View newest = newest_view(node);
    if (newest > baseline->second || newest + grace >= best) continue;
    if (stalled != nullptr) stalled->push_back(node.node);
    if (!violation) {
      std::ostringstream out;
      out << "stall: node " << node.node << " committed nothing past view " << baseline->second
          << " and ends at view " << newest << ", " << (best - newest)
          << " views behind the best honest ledger (grace " << grace << ")";
      violation = out.str();
    }
  }
  return violation;
}

}  // namespace lumiere::fuzz
