// Quickstart: spin up a 4-processor cluster running chained HotStuff
// under the Lumiere pacemaker, submit commands, watch them commit.
//
//   cmake --build build && ./build/examples/quickstart
//
// This is the 60-second tour of the public API:
//   ScenarioBuilder -> Cluster -> run -> inspect ledgers & metrics.
#include <cstdio>

#include "runtime/cluster.h"

using namespace lumiere;

int main() {
  // 1. Configure: n = 3f+1 = 4 processors, known delay bound Delta = 10ms,
  //    actual network delay 1ms (partial synchrony: the protocol only
  //    knows Delta; responsiveness means it runs at the 1ms speed).
  runtime::ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(4, Duration::millis(10), /*x=*/4))
      .pacemaker("lumiere")
      .core("chained-hotstuff")
      .delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)))
      .seed(2024);

  // 2. Build and run for 10 simulated seconds.
  runtime::Cluster cluster(builder);
  cluster.run_for(Duration::seconds(10));

  // 3. Inspect: every honest node committed the same chain.
  std::printf("quickstart: %u nodes, Lumiere + chained HotStuff, 10s simulated\n",
              cluster.n());
  for (ProcessId id = 0; id < cluster.n(); ++id) {
    const auto& ledger = cluster.node(id).ledger();
    std::printf("  node %u: view %lld, %zu blocks committed\n", id,
                static_cast<long long>(cluster.node(id).current_view()), ledger.size());
  }
  const auto& reference = cluster.node(0).ledger();
  bool consistent = true;
  for (ProcessId id = 1; id < cluster.n(); ++id) {
    consistent = consistent && cluster.node(id).ledger().prefix_consistent_with(reference);
  }
  std::printf("  ledgers prefix-consistent: %s\n", consistent ? "yes" : "NO (bug!)");

  // 4. The view-synchronization layer's cost, as the paper accounts it.
  const auto& metrics = cluster.metrics();
  std::printf("  honest messages: %llu total (%llu pacemaker, %llu consensus)\n",
              static_cast<unsigned long long>(metrics.total_honest_msgs()),
              static_cast<unsigned long long>(metrics.pacemaker_msgs()),
              static_cast<unsigned long long>(metrics.consensus_msgs()));
  std::printf("  decisions (honest-leader QCs): %zu\n", metrics.decisions().size());
  if (const auto gap = metrics.max_decision_gap(TimePoint::origin(), /*warmup=*/10)) {
    std::printf("  worst steady-state decision gap: %.1f ms (network delay is 1 ms)\n",
                static_cast<double>(gap->ticks()) / 1000.0);
  }
  std::printf("\nNext: examples/byzantine_storm and examples/wan_replication, then\n"
              "bench/bench_table1 for the paper's artifacts (Table 1, Figure 1 and more).\n");
  return 0;
}
