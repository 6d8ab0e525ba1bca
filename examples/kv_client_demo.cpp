// Client-driven KV store: the full SMR loop with real clients.
//
//   clients (closed loop) -> tagged KV requests -> bounded mempools ->
//   chained HotStuff commits -> every replica executes the same batches
//   -> identical KV states, with per-request submit -> commit latency.
//
// Unlike the hand-built payloads of the earlier examples, commands here
// enter through the workload engine: each client keeps a window of
// requests in flight, reacts to mempool backpressure, and the engine
// matches committed requests back to their submission instants.
//
//   cmake --build build && ./build/examples/kv_client_demo
#include <cstdio>
#include <string>

#include "consensus/kv_store.h"
#include "consensus/mempool.h"
#include "runtime/cluster.h"
#include "workload/engine.h"
#include "workload/report.h"
#include "workload/request.h"

using namespace lumiere;

namespace {

/// Deterministic KV command stream per client: mostly SETs over a small
/// key space with an occasional DEL, so replicas end with a non-trivial
/// shared state.
std::vector<std::uint8_t> kv_body(std::uint32_t client, std::uint64_t seq) {
  // append-built strings: GCC 12's -Wrestrict false-positives on
  // operator+ chains under -O2 (PR105651), and CI builds with -Werror.
  std::string key = "k";
  key.append(std::to_string((client * 31 + seq) % 100));
  if (seq % 9 == 7) return consensus::KvStore::del_command(key);
  std::string value = "c";
  value.append(std::to_string(client));
  value.append(":v");
  value.append(std::to_string(seq));
  return consensus::KvStore::set_command(key, value);
}

}  // namespace

int main() {
  workload::WorkloadSpec spec;
  spec.arrival = workload::Arrival::kClosedLoop;
  spec.clients_per_node = 2;
  spec.in_flight = 8;
  spec.body = kv_body;
  spec.mempool.max_pending_count = 256;
  spec.mempool.max_pending_bytes = 32 * 1024;

  runtime::ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(4, Duration::millis(10), /*x=*/4))
      .pacemaker("lumiere")
      .core("chained-hotstuff")
      .delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)))
      .seed(4242)
      .workload(spec);

  runtime::Cluster cluster(builder);
  cluster.run_for(Duration::seconds(10));

  std::printf("kv_client_demo: 8 closed-loop clients (window 8) over Lumiere + chained "
              "HotStuff, 10s simulated\n\n");

  // Every replica executes its committed batches: unwrap each workload
  // request and apply its KV command body.
  std::vector<consensus::KvStore> stores(cluster.n());
  for (ProcessId id = 0; id < cluster.n(); ++id) {
    for (const auto& entry : cluster.node(id).ledger().entries()) {
      consensus::for_each_command(entry.payload, [&](std::span<const std::uint8_t> command) {
        if (!consensus::request_tag(command)) return;  // not a workload request
        stores[id].apply_command(command.subspan(workload::kRequestHeaderBytes));
      });
    }
    std::printf("  replica %u: %zu blocks, %llu commands applied, %zu keys, state %.16s...\n",
                id, cluster.node(id).ledger().size(),
                static_cast<unsigned long long>(stores[id].applied_commands()),
                stores[id].size(), stores[id].state_digest().hex().c_str());
  }

  std::size_t shortest = SIZE_MAX;
  for (ProcessId id = 0; id < cluster.n(); ++id) {
    shortest = std::min(shortest, cluster.node(id).ledger().size());
  }
  bool agree = true;
  // Replay the shortest common prefix on fresh stores: equal-prefix
  // states must be byte-identical (the SMR guarantee).
  consensus::KvStore reference;
  for (ProcessId id = 0; id < cluster.n() && agree; ++id) {
    consensus::KvStore replay;
    for (std::size_t i = 0; i < shortest; ++i) {
      consensus::for_each_command(cluster.node(id).ledger().entries()[i].payload,
                                  [&](std::span<const std::uint8_t> command) {
                                    if (!consensus::request_tag(command)) return;
                                    replay.apply_command(
                                        command.subspan(workload::kRequestHeaderBytes));
                                  });
    }
    if (id == 0) {
      reference = replay;
    } else {
      agree = replay.state_digest() == reference.state_digest();
    }
  }
  std::printf("\n  equal-prefix KV states agree: %s\n", agree ? "yes" : "NO (bug!)");

  const workload::Report report = cluster.workload_report();
  std::printf("\n  requests: %llu submitted, %llu admitted, %llu committed "
              "(%llu still in flight)\n",
              static_cast<unsigned long long>(report.submitted),
              static_cast<unsigned long long>(report.admitted),
              static_cast<unsigned long long>(report.committed),
              static_cast<unsigned long long>(report.outstanding));
  const auto p50 = report.latency_percentile(0.50);
  const auto p99 = report.latency_percentile(0.99);
  std::printf("  client latency: p50 %.1f ms, p99 %.1f ms; deepest backlog %zu\n",
              p50 ? static_cast<double>(p50->ticks()) / 1000.0 : 0.0,
              p99 ? static_cast<double>(p99->ticks()) / 1000.0 : 0.0,
              report.max_queue_depth);
  std::printf("  exactly-once: %s (%llu duplicate commits)\n",
              report.commit_misses == 0 ? "yes" : "NO (bug!)",
              static_cast<unsigned long long>(report.commit_misses));
  return agree && report.commit_misses == 0 ? 0 : 1;
}
