#include "fuzz/ledger_oracles.h"

#include <algorithm>
#include <functional>
#include <span>
#include <sstream>
#include <utility>

#include "consensus/mempool.h"
#include "consensus/request_tag.h"
#include "dissem/batch_lanes.h"

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

namespace {

/// Visits each tagged request `node` committed, in commit order, as
/// visit(entry index, tag), resolving batch references through
/// `resolve` (a batch delivers once; `origins` is the cluster size, the
/// lanes of the dedup table). Stops early when `visit` returns true.
/// Returns the first malformed or unresolved reference it meets.
std::optional<std::string> visit_committed_tags(
    const NodeLedgerData& node, const BatchResolver& resolve, std::uint32_t origins,
    const std::function<bool(std::size_t, consensus::RequestTag)>& visit) {
  dissem::BatchLanes delivered(origins);
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
        if (!delivered.mark_ordered(cert.id())) continue;  // delivers once
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
    bool stop = false;
    for (const auto& batch : batches) {
      consensus::for_each_command(batch, [&](std::span<const std::uint8_t> command) {
        const auto tag = consensus::request_tag(command);
        if (tag && !stop) stop = visit(index, *tag);  // untagged: not a workload request
      });
      if (stop) return std::nullopt;
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> check_exactly_once_data(const std::vector<NodeLedgerData>& nodes,
                                                   const BatchResolver& resolve) {
  const auto origins = static_cast<std::uint32_t>(nodes.size());
  for (const NodeLedgerData& node : nodes) {
    if (node.ever_byzantine) continue;
    // O(clients) memory however long the ledger; a repeat re-scans for
    // its first commit to name both entries.
    consensus::CommittedTags committed;
    std::optional<consensus::RequestTag> repeated;
    std::size_t second = 0;
    auto violation = visit_committed_tags(node, resolve, origins,
                                          [&](std::size_t index, consensus::RequestTag tag) {
      if (!committed.contains(tag)) {
        committed.insert(tag);
        return false;
      }
      repeated = tag;
      second = index;
      return true;
    });
    if (violation) return violation;
    if (!repeated) continue;
    std::size_t first = second;
    visit_committed_tags(node, resolve, origins, [&](std::size_t index,
                                                     consensus::RequestTag tag) {
      if (tag != *repeated) return false;
      first = index;
      return true;
    });
    std::ostringstream out;
    out << "exactly-once: node " << node.node << " committed request (client "
        << repeated->client << ", seq " << repeated->seq << ") twice (entries " << first
        << " and " << second << ")";
    return out.str();
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
