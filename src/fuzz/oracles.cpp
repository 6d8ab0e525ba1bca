#include "fuzz/oracles.h"

#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "consensus/mempool.h"
#include "dissem/batch.h"
#include "runtime/cluster.h"
#include "workload/request.h"

namespace lumiere::fuzz {

std::optional<std::string> check_safety(const runtime::Cluster& cluster) {
  const std::vector<ProcessId> honest = cluster.honest_ids();
  for (std::size_t i = 0; i < honest.size(); ++i) {
    for (std::size_t j = i + 1; j < honest.size(); ++j) {
      const consensus::Ledger& a = cluster.node(honest[i]).ledger();
      const consensus::Ledger& b = cluster.node(honest[j]).ledger();
      if (!a.prefix_consistent_with(b)) {
        std::ostringstream out;
        out << "safety: ledger fork between honest nodes " << honest[i] << " ("
            << a.size() << " blocks) and " << honest[j] << " (" << b.size() << " blocks)";
        return out.str();
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_view_monotonicity(const runtime::Cluster& cluster) {
  std::map<ProcessId, View> last;
  for (const sim::TraceEvent& event : cluster.trace().events()) {
    if (event.kind != sim::TraceKind::kViewEntered) continue;
    const auto it = last.find(event.node);
    if (it != last.end() && event.view < it->second) {
      std::ostringstream out;
      out << "view monotonicity: node " << event.node << " regressed from view "
          << it->second << " to " << event.view << " at " << event.at;
      return out.str();
    }
    last[event.node] = event.view;
  }
  return std::nullopt;
}

std::optional<std::string> check_decision_liveness(const runtime::Cluster& cluster,
                                                   TimePoint from, Duration bound,
                                                   std::size_t min_decisions) {
  const TimePoint deadline = from + bound;
  std::size_t count = 0;
  for (const auto& decision : cluster.metrics().decisions()) {
    if (decision.at > from && decision.at <= deadline) ++count;
  }
  if (count >= min_decisions) return std::nullopt;
  std::ostringstream out;
  out << "liveness: only " << count << " decision" << (count == 1 ? "" : "s") << " in ("
      << from << ", " << deadline << "] — expected at least " << min_decisions;
  return out.str();
}

std::optional<std::string> check_commit_liveness(const runtime::Cluster& cluster,
                                                 TimePoint from, Duration bound,
                                                 std::size_t min_commits) {
  const TimePoint deadline = from + bound;
  std::size_t best = 0;
  for (const ProcessId id : cluster.honest_ids()) {
    std::size_t count = 0;
    for (const auto& entry : cluster.node(id).ledger().entries()) {
      if (entry.committed_at > from && entry.committed_at <= deadline) ++count;
    }
    best = std::max(best, count);
  }
  if (best >= min_commits) return std::nullopt;
  std::ostringstream out;
  out << "liveness: best honest ledger committed " << best << " block"
      << (best == 1 ? "" : "s") << " in (" << from << ", " << deadline
      << "] — expected at least " << min_commits;
  return out.str();
}

std::optional<std::string> check_exactly_once(const runtime::Cluster& cluster) {
  // (1) No honest node delivers the same tagged request twice — the
  // mempool's duplicate suppression and view-leased batches must hold
  // under every composition of faults. With dissemination, a ledger
  // entry carries certified references: each BatchId delivers once per
  // node (re-ordering the same reference in a later block is legal and
  // deduplicated), its bytes resolved through the node's disseminator —
  // an unresolved committed reference at run end is itself a violation.
  for (const ProcessId id : cluster.honest_ids()) {
    std::map<std::pair<std::uint32_t, std::uint64_t>, std::size_t> seen;
    std::set<dissem::BatchId> delivered;
    std::size_t block_index = 0;
    for (const auto& entry : cluster.node(id).ledger().entries()) {
      std::vector<std::span<const std::uint8_t>> batches;
      if (dissem::is_refs_payload(entry.payload)) {
        const auto refs = dissem::decode_refs(entry.payload);
        if (!refs) {
          std::ostringstream out;
          out << "exactly-once: node " << id << " committed a malformed refs payload (block "
              << block_index << ")";
          return out.str();
        }
        const dissem::Disseminator* engine = cluster.node(id).disseminator();
        for (const dissem::BatchCert& cert : *refs) {
          if (!delivered.insert(cert.id()).second) continue;  // delivers once
          const std::vector<std::uint8_t>* bytes =
              engine == nullptr ? nullptr : engine->payload_of(cert.id());
          if (bytes == nullptr) {
            std::ostringstream out;
            out << "exactly-once: node " << id << " committed a batch reference (origin "
                << cert.id().origin << ", seq " << cert.id().seq
                << ") it never resolved (block " << block_index << ")";
            return out.str();
          }
          batches.emplace_back(bytes->data(), bytes->size());
        }
      } else {
        batches.push_back(entry.payload);
      }
      for (const auto& batch : batches) {
        for (const auto& command : consensus::Mempool::split_batch(batch)) {
          const auto request = workload::Request::decode(command);
          if (!request) continue;  // not a tagged workload request
          const auto key = std::make_pair(request->client, request->seq);
          const auto [it, inserted] = seen.emplace(key, block_index);
          if (!inserted) {
            std::ostringstream out;
            out << "exactly-once: node " << id << " committed request (client "
                << request->client << ", seq " << request->seq << ") twice (blocks "
                << it->second << " and " << block_index << ")";
            return out.str();
          }
        }
      }
      ++block_index;
    }
  }
  // (2) Every commit the client side observed matches a submission it
  // made — a committed request materializing from nowhere means the
  // engine's accounting (or the ledger) is corrupt.
  const workload::Report report = cluster.workload_report();
  if (report.commit_misses != 0) {
    std::ostringstream out;
    out << "exactly-once: " << report.commit_misses
        << " committed request(s) matched no submission";
    return out.str();
  }
  return std::nullopt;
}

}  // namespace lumiere::fuzz
