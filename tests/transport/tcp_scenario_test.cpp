// ScenarioBuilder's TCP transport: the same construction API that drives
// the deterministic simulator boots real-socket clusters (one private
// simulator + wall-clock driver thread per node). Smoke-level by design —
// wall-clock runs cannot assert timing shapes, only that the protocol
// stack reaches consensus over real frames.
#include <gtest/gtest.h>

#include "runtime/cluster.h"
#include "workload/report.h"
#include "workload/spec.h"

namespace lumiere::runtime {
namespace {

TEST(TcpScenarioTest, HomogeneousLumiereClusterAdvancesOverTcp) {
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(4, Duration::millis(10), /*x=*/4))
      .pacemaker("lumiere")
      .core("chained-hotstuff")
      .seed(71)
      .transport_tcp(25560);
  Cluster cluster(builder);
  EXPECT_EQ(cluster.transport(), TransportKind::kTcp);
  cluster.run_for(Duration::millis(800));  // wall-clock
  std::size_t shortest_chain = SIZE_MAX;
  for (ProcessId id = 0; id < cluster.n(); ++id) {
    EXPECT_GE(cluster.node(id).current_view(), 3)
        << "node " << id << " made no view progress over TCP";
    shortest_chain = std::min(shortest_chain, cluster.node(id).ledger().size());
  }
  ASSERT_GT(shortest_chain, 0U) << "no commits over TCP";
  // Committed prefixes agree (safety holds off-simulator too).
  for (std::size_t i = 0; i < shortest_chain; ++i) {
    const auto& reference = cluster.node(0).ledger().entries()[i].hash();
    for (ProcessId id = 1; id < cluster.n(); ++id) {
      EXPECT_EQ(cluster.node(id).ledger().entries()[i].hash(), reference)
          << "SMR logs diverged over TCP at index " << i;
    }
  }
}

TEST(TcpScenarioTest, HeterogeneousClusterSmokesOverTcp) {
  // The heterogeneous shape from tests/integration/heterogeneous_test.cpp
  // at smoke level: n = 4 (f = 1), one round-robin deviant, and the three
  // Lumiere nodes — exactly 2f+1 — must still advance over real sockets.
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(4, Duration::millis(10)))
      .pacemaker("lumiere")
      .seed(72)
      .transport_tcp(25580);
  builder.node(3).pacemaker("round-robin");
  Cluster cluster(builder);
  cluster.run_for(Duration::millis(800));  // wall-clock
  for (ProcessId id = 0; id < 3; ++id) {
    EXPECT_GE(cluster.node(id).current_view(), 3)
        << "Lumiere node " << id << " stalled against the round-robin deviant over TCP";
  }
  EXPECT_EQ(cluster.node(3).protocol().pacemaker, "round-robin");
}

TEST(TcpScenarioTest, ScheduledCrashHasBestEffortTcpAnalogue) {
  // A scripted crash/recover window on the TCP transport: node 3's frames
  // are dropped for the middle of the run, then it rejoins and catches
  // up. Smoke-level — the assertion is only that the cut node fell
  // behind-or-equal and the cluster survived.
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(4, Duration::millis(10), /*x=*/4))
      .pacemaker("lumiere")
      .seed(73)
      .transport_tcp(25600);
  builder.crash(3, TimePoint(Duration::millis(200).ticks()));
  builder.recover(3, TimePoint(Duration::millis(500).ticks()));
  Cluster cluster(builder);
  cluster.run_for(Duration::millis(900));  // wall-clock
  // The three always-connected nodes — exactly 2f+1 — kept advancing.
  for (ProcessId id = 0; id < 3; ++id) {
    EXPECT_GE(cluster.node(id).current_view(), 3)
        << "node " << id << " stalled while node 3 was scripted away";
  }
  EXPECT_LE(cluster.node(3).current_view(), cluster.node(0).current_view() + 1)
      << "a node cut for a third of the run cannot lead the cluster";
}

TEST(TcpScenarioTest, WorkloadEngineDrivesRealSockets) {
  // The workload engine over TCP: client drivers run on each node's
  // private wall-clock-paced simulator, submissions/commits stay on the
  // node's own thread, and the merged report is read after run_for joins
  // the threads. Smoke-level: requests flow end to end and none of the
  // admitted ones are double-committed.
  workload::WorkloadSpec spec;
  spec.arrival = workload::Arrival::kConstant;
  spec.clients_per_node = 1;
  spec.rate_per_client = 200.0;
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(4, Duration::millis(10), /*x=*/4))
      .pacemaker("lumiere")
      .core("chained-hotstuff")
      .seed(74)
      .workload(spec)
      .transport_tcp(25620);
  Cluster cluster(builder);
  cluster.run_for(Duration::millis(1200));  // wall-clock

  const workload::Report report = cluster.workload_report();
  EXPECT_GT(report.submitted, 100U) << "drivers did not run against the wall clock";
  EXPECT_GT(report.committed, 0U) << "no request completed over TCP";
  EXPECT_EQ(report.commit_misses, 0U) << "a request committed twice";
  EXPECT_LE(report.committed, report.admitted);
  EXPECT_TRUE(report.latency_percentile(0.5).has_value());
  // Committed payloads agree across replicas (the SMR guarantee carries
  // the workload): shortest common prefix, hash-checked.
  std::size_t shortest = SIZE_MAX;
  for (ProcessId id = 0; id < cluster.n(); ++id) {
    shortest = std::min(shortest, cluster.node(id).ledger().size());
  }
  ASSERT_GT(shortest, 0U);
  for (std::size_t i = 0; i < shortest; ++i) {
    const auto& reference = cluster.node(0).ledger().entries()[i].hash();
    for (ProcessId id = 1; id < cluster.n(); ++id) {
      EXPECT_EQ(cluster.node(id).ledger().entries()[i].hash(), reference);
    }
  }
}

}  // namespace
}  // namespace lumiere::runtime
