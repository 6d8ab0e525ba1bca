// The full stack over real sockets: four complete Lumiere + chained
// HotStuff nodes — pacemaker, local clocks, consensus core, ledger —
// each on its own thread, exchanging real framed bytes over localhost
// TCP, timers running in wall-clock time.
//
//   ./build/examples/tcp_lumiere
//
// This is not the measurement harness (the deterministic simulator is —
// only there can the partial-synchrony adversary be controlled); it is
// the existence proof behind the title's "Practical": the SAME
// ScenarioBuilder call that configures a simulated cluster configures a
// real one — transport_tcp() is the whole difference.
//
// It also prints what left the nodes: messages to other processes (and
// how many were broadcasts), their peer copies and the encodes those
// copies took, which is one per message (a broadcast's copies share one),
// and the view shares that rode NewViews instead of leaving as ViewMsgs.
// It exits 1 if any message took more than one encode or no share rode a
// NewView.
#include <cstdio>
#include <vector>

#include "consensus/kv_store.h"
#include "runtime/cluster.h"

using namespace lumiere;

int main() {
  constexpr std::uint32_t kN = 4;
  constexpr std::uint16_t kBasePort = 24480;
  const auto kWall = Duration::millis(1500);

  runtime::ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(kN, Duration::millis(10), /*x=*/4))
      .pacemaker("lumiere")
      .core("chained-hotstuff")
      .seed(2024)
      .workload([](View v) {
        return consensus::KvStore::set_command("view", std::to_string(v));
      })
      .transport_tcp(kBasePort);

  std::printf("tcp_lumiere: %u full Lumiere+HotStuff nodes over 127.0.0.1:%u-%u,\n"
              "one thread each, wall-clock timers, %lld ms of real time...\n\n",
              kN, kBasePort, kBasePort + kN - 1,
              static_cast<long long>(kWall.ticks() / 1000));

  runtime::Cluster cluster(builder);
  cluster.run_for(kWall);  // wall-clock: 1 simulated us = 1 real us

  std::size_t shortest = SIZE_MAX;
  for (ProcessId id = 0; id < kN; ++id) {
    const auto& node = cluster.node(id);
    std::printf("  node %u: view %lld, %zu blocks committed\n", id,
                static_cast<long long>(node.current_view()), node.ledger().size());
    shortest = std::min(shortest, node.ledger().size());
  }

  bool consistent = shortest > 0;
  for (std::size_t i = 0; i < shortest; ++i) {
    const auto& reference = cluster.node(0).ledger().entries()[i].hash();
    for (ProcessId id = 1; id < kN; ++id) {
      if (cluster.node(id).ledger().entries()[i].hash() != reference) consistent = false;
    }
  }
  std::printf("\ncommitted prefixes identical across nodes: %s\n",
              consistent ? "yes" : "NO");

  const transport::SendCounts sent = cluster.tcp_send_counts();
  std::uint64_t riding_shares = 0;
  for (ProcessId id = 0; id < kN; ++id) riding_shares += cluster.node(id).riding_shares();
  const bool one_encode = sent.encodes <= sent.messages;
  std::printf("messages to peers: %llu (%llu broadcasts), peer copies: %llu, encodes: %llu\n",
              static_cast<unsigned long long>(sent.messages),
              static_cast<unsigned long long>(sent.broadcasts),
              static_cast<unsigned long long>(sent.copies),
              static_cast<unsigned long long>(sent.encodes));
  std::printf("one encode per message: %s\n", one_encode ? "yes" : "NO");
  std::printf("view shares that rode NewViews: %llu\n",
              static_cast<unsigned long long>(riding_shares));
  std::printf("\nThe same Pacemaker/ConsensusCore objects the simulator drives just ran\n"
              "over a real network — swap transport_tcp() for the default sim transport\n"
              "and the identical scenario becomes a deterministic experiment.\n");
  return consistent && one_encode && riding_shares > 0 ? 0 : 1;
}
