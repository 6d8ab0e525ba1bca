#include "fuzz/oracles.h"

#include <map>
#include <sstream>
#include <utility>

#include "runtime/cluster.h"

namespace lumiere::fuzz {

std::vector<NodeLedgerData> ledger_data(const runtime::Cluster& cluster) {
  std::vector<NodeLedgerData> nodes;
  for (const ProcessId id : cluster.honest_ids()) {
    NodeLedgerData data;
    data.node = id;
    data.records = runtime::ledger_records(cluster.node(id).ledger());
    nodes.push_back(std::move(data));
  }
  return nodes;
}

std::optional<std::string> check_safety(const runtime::Cluster& cluster) {
  return check_safety_data(ledger_data(cluster));
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
  const BatchResolver resolve = [&cluster](ProcessId id, const dissem::BatchId& batch) {
    const dissem::Disseminator* engine = cluster.node(id).disseminator();
    return engine == nullptr ? nullptr : engine->payload_of(batch);
  };
  // Exactly-once is a per-ledger property: check one node at a time, so
  // only one ledger's records live beside the check's own bookkeeping.
  for (const ProcessId id : cluster.honest_ids()) {
    std::vector<NodeLedgerData> node(1);
    node[0].node = id;
    node[0].records = runtime::ledger_records(cluster.node(id).ledger());
    if (auto violation = check_exactly_once_data(node, resolve)) return violation;
  }
  // Every commit the client side observed matches a submission it made —
  // a committed request materializing from nowhere means the engine's
  // accounting (or the ledger) is corrupt.
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
