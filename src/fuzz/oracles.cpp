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
  // Safety compares every honest ledger with the longest one (the first
  // of that length, as check_safety_data picks it), so only that ledger's
  // records and one other's live at a time.
  const std::vector<ProcessId> honest = cluster.honest_ids();
  if (honest.empty()) return std::nullopt;
  ProcessId longest = honest.front();
  for (const ProcessId id : honest) {
    if (cluster.node(id).ledger().size() > cluster.node(longest).ledger().size()) longest = id;
  }
  std::vector<NodeLedgerData> pair(2);
  pair[0].node = longest;
  pair[0].records = runtime::ledger_records(cluster.node(longest).ledger());
  for (const ProcessId id : honest) {
    if (id == longest) continue;
    pair[1].node = id;
    pair[1].records.clear();  // free the previous ledger's records first
    pair[1].records.shrink_to_fit();
    pair[1].records = runtime::ledger_records(cluster.node(id).ledger());
    if (auto violation = check_safety_data(pair)) return violation;
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
  // Summed from each engine's counters: a merged report would copy every
  // latency sample just to read this one.
  std::uint64_t commit_misses = 0;
  for (ProcessId id = 0; id < cluster.n(); ++id) {
    if (const workload::NodeWorkload* workload = cluster.node_workload(id)) {
      commit_misses += workload->stats().commit_misses;
    }
  }
  if (commit_misses != 0) {
    std::ostringstream out;
    out << "exactly-once: " << commit_misses << " committed request(s) matched no submission";
    return out.str();
  }
  return std::nullopt;
}

}  // namespace lumiere::fuzz
