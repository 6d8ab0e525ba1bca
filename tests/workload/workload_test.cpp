// The workload engine end to end on the deterministic simulator: tagged
// requests flow client -> mempool -> proposals -> commits, latency is
// charged per request, and the admission/backpressure loop keeps the
// closed-loop invariant — an admitted request is never lost.
#include <gtest/gtest.h>

#include "consensus/chained_core.h"
#include "runtime/cluster.h"
#include "workload/engine.h"
#include "workload/report.h"
#include "workload/request.h"

namespace lumiere::workload {
namespace {

using runtime::Cluster;
using runtime::ScenarioBuilder;

TEST(RequestTest, EncodeDecodeRoundTrip) {
  const std::vector<std::uint8_t> body = {1, 2, 3, 4};
  const auto wire = Request::encode(client_id(3, 7), 42,
                                    std::span<const std::uint8_t>(body.data(), body.size()));
  EXPECT_EQ(wire.size(), kRequestHeaderBytes + body.size());
  const auto request = Request::decode(std::span<const std::uint8_t>(wire.data(), wire.size()));
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->client, client_id(3, 7));
  EXPECT_EQ(client_node(request->client), 3U);
  EXPECT_EQ(request->seq, 42U);
  EXPECT_EQ(request->body, body);
}

TEST(RequestTest, RejectsForeignCommands) {
  EXPECT_FALSE(Request::decode({}).has_value());
  const std::vector<std::uint8_t> not_ours = {0x01, 0x02, 0x03};
  EXPECT_FALSE(
      Request::decode(std::span<const std::uint8_t>(not_ours.data(), not_ours.size())));
}

TEST(RequestTest, PaddingIsDeterministicPerTag) {
  EXPECT_EQ(padding_body(1, 2, 32), padding_body(1, 2, 32));
  EXPECT_NE(padding_body(1, 2, 32), padding_body(1, 3, 32));
  EXPECT_NE(padding_body(1, 2, 32), padding_body(2, 2, 32));
}

ScenarioBuilder base_builder(std::uint64_t seed) {
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(4, Duration::millis(10), /*x=*/4));
  builder.pacemaker("lumiere");
  builder.core("chained-hotstuff");
  builder.seed(seed);
  builder.delay(std::make_shared<sim::FixedDelay>(Duration::micros(500)));
  return builder;
}

TEST(WorkloadTest, OpenLoopConstantRateSubmitsAndCommits) {
  WorkloadSpec spec;
  spec.arrival = Arrival::kConstant;
  spec.clients_per_node = 1;
  spec.rate_per_client = 100.0;
  ScenarioBuilder builder = base_builder(11);
  builder.workload(spec);
  Cluster cluster(builder);
  cluster.run_for(Duration::seconds(10));

  const Report report = cluster.workload_report();
  // 4 nodes x 1 client x 100/s over 10s, modulo edge arrivals.
  EXPECT_GE(report.submitted, 3900U);
  EXPECT_LE(report.submitted, 4100U);
  EXPECT_EQ(report.shed, 0U) << "an unbounded pool never sheds";
  EXPECT_GT(report.committed, 0U);
  EXPECT_EQ(report.commit_misses, 0U);
  EXPECT_EQ(report.committed + report.outstanding, report.admitted);
  // Latency is measurable and positive.
  const auto p50 = report.latency_percentile(0.5);
  ASSERT_TRUE(p50.has_value());
  EXPECT_GT(*p50, Duration::zero());
  const auto p99 = report.latency_percentile(0.99);
  EXPECT_GE(*p99, *p50);
  // The sim transport feeds the shared metrics too, windowed or not.
  EXPECT_EQ(cluster.metrics().requests_committed(), report.committed);
  EXPECT_EQ(cluster.metrics().requests_between(TimePoint::origin(), TimePoint::max()),
            report.committed);
  EXPECT_TRUE(cluster.metrics().request_latency_percentile(0.5).has_value());
  EXPECT_GT(cluster.metrics().queue_depth_log().size(), 0U);
}

TEST(WorkloadTest, PoissonAndBurstyArrivalsFlow) {
  for (const Arrival arrival : {Arrival::kPoisson, Arrival::kBursty}) {
    WorkloadSpec spec;
    spec.arrival = arrival;
    spec.rate_per_client = 200.0;
    ScenarioBuilder builder = base_builder(12);
    builder.workload(spec);
    Cluster cluster(builder);
    cluster.run_for(Duration::seconds(5));
    const Report report = cluster.workload_report();
    EXPECT_GT(report.submitted, 1000U) << to_string(arrival);
    EXPECT_GT(report.committed, 0U) << to_string(arrival);
    EXPECT_EQ(report.commit_misses, 0U) << to_string(arrival);
  }
}

TEST(WorkloadTest, OpenLoopShedsUnderBackpressureWithoutLosingAdmitted) {
  WorkloadSpec spec;
  spec.arrival = Arrival::kConstant;
  spec.clients_per_node = 2;
  spec.rate_per_client = 2000.0;  // far beyond what tiny pools absorb
  spec.mempool.max_pending_count = 8;
  spec.mempool.max_pending_bytes = 1024;
  ScenarioBuilder builder = base_builder(13);
  builder.workload(spec);
  Cluster cluster(builder);
  cluster.run_for(Duration::seconds(5));

  const Report report = cluster.workload_report();
  EXPECT_GT(report.shed, 0U) << "offered load above capacity must shed";
  EXPECT_EQ(report.shed, report.rejected_full);
  EXPECT_GT(report.committed, 0U);
  EXPECT_EQ(report.commit_misses, 0U);
  EXPECT_EQ(report.committed + report.outstanding, report.admitted)
      << "every admitted request is committed or still queued — never lost";
  EXPECT_LE(report.max_queue_depth, 8U);
}

TEST(WorkloadTest, SheddingKeepsTheCommittedTagIndexAtOneMarkPerClient) {
  // A shed request gives its seq to the next arrival, so the seqs that
  // reach the chain have no gaps and every replica's committed-tag index
  // (consensus/request_tag.h) stays one mark per client. Had each shed
  // burned a seq, nearly every commit would sit above its client's mark.
  WorkloadSpec spec;
  spec.arrival = Arrival::kConstant;
  spec.clients_per_node = 2;
  spec.rate_per_client = 2000.0;
  spec.mempool.max_pending_count = 8;
  spec.mempool.max_pending_bytes = 1024;
  ScenarioBuilder builder = base_builder(13);
  builder.workload(spec);
  Cluster cluster(builder);
  cluster.run_for(Duration::seconds(5));

  const Report report = cluster.workload_report();
  ASSERT_GT(report.shed, 1000U);
  ASSERT_GT(report.committed, 1000U);
  for (ProcessId id = 0; id < cluster.n(); ++id) {
    const auto& core = dynamic_cast<const consensus::ChainedCore&>(cluster.node(id).core());
    const consensus::CommittedTags& index = core.committed_tags();
    EXPECT_EQ(index.clients(), cluster.n() * spec.clients_per_node) << "node " << id;
    // Only seqs committed ahead of a straggler (out of order) sit above.
    EXPECT_LE(index.above_marks(), index.clients() * spec.mempool.max_pending_count)
        << "node " << id;
  }
}

TEST(WorkloadTest, ClosedLoopNeverLosesAnAdmittedRequest) {
  // The acceptance invariant: a closed-loop run against a bounded
  // mempool, with a drain window after stop — every admitted request
  // commits exactly once.
  WorkloadSpec spec;
  spec.arrival = Arrival::kClosedLoop;
  spec.clients_per_node = 2;
  spec.in_flight = 4;
  spec.mempool.max_pending_count = 16;
  spec.mempool.max_pending_bytes = 4096;
  spec.stop = TimePoint(Duration::seconds(15).ticks());
  ScenarioBuilder builder = base_builder(14);
  builder.workload(spec);
  Cluster cluster(builder);
  cluster.run_for(Duration::seconds(25));  // 10s drain past stop

  const Report report = cluster.workload_report();
  EXPECT_GT(report.committed, 100U);
  EXPECT_EQ(report.commit_misses, 0U) << "some request committed twice";
  EXPECT_EQ(report.outstanding, 0U) << "admitted requests still un-committed after drain";
  EXPECT_EQ(report.committed, report.admitted) << "an admitted request was dropped";
  EXPECT_EQ(report.rejected_duplicate, 0U);
}

TEST(WorkloadTest, ClosedLoopHoldsItsWindow) {
  WorkloadSpec spec;
  spec.arrival = Arrival::kClosedLoop;
  spec.clients_per_node = 1;
  spec.in_flight = 3;
  ScenarioBuilder builder = base_builder(15);
  builder.workload(spec);
  Cluster cluster(builder);
  cluster.run_for(Duration::seconds(5));
  const Report report = cluster.workload_report();
  // At any instant each client has at most in_flight outstanding; at the
  // end outstanding can be at most clients x window across 4 nodes.
  EXPECT_LE(report.outstanding, 4U * 3U);
  EXPECT_GT(report.committed, 0U);
  EXPECT_EQ(report.committed + report.outstanding, report.admitted);
}

TEST(WorkloadTest, PerNodeOverridesSelectWhoDrives) {
  WorkloadSpec spec;
  spec.arrival = Arrival::kConstant;
  spec.rate_per_client = 100.0;
  WorkloadSpec disabled = spec;
  disabled.clients_per_node = 0;
  ScenarioBuilder builder = base_builder(16);
  builder.workload(spec);
  builder.node(2).workload(disabled);
  Cluster cluster(builder);
  EXPECT_NE(cluster.node_workload(0), nullptr);
  EXPECT_NE(cluster.node_workload(1), nullptr);
  EXPECT_EQ(cluster.node_workload(2), nullptr) << "clients_per_node = 0 disables the node";
  EXPECT_NE(cluster.node_workload(3), nullptr);
  cluster.run_for(Duration::seconds(3));
  EXPECT_GT(cluster.node_workload(0)->stats().submitted, 0U);
}

TEST(WorkloadTest, ValidateRejectsNonCommittingCore) {
  WorkloadSpec spec;
  ScenarioBuilder builder = base_builder(17);
  builder.core("simple-view");
  builder.workload(spec);
  const auto errors = builder.validate();
  ASSERT_FALSE(errors.empty());
  bool found = false;
  for (const auto& error : errors) {
    if (error.find("committing core") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << "simple-view cannot complete any request";
}

TEST(WorkloadTest, ValidateRejectsConflictsAndBadShapes) {
  {
    ScenarioBuilder builder = base_builder(18);
    builder.workload([](View) { return std::vector<std::uint8_t>{}; });
    builder.workload(WorkloadSpec{});
    EXPECT_FALSE(builder.validate().empty()) << "spec and raw provider are exclusive";
  }
  {
    WorkloadSpec bad;
    bad.rate_per_client = 0.0;
    ScenarioBuilder builder = base_builder(19);
    builder.workload(bad);
    EXPECT_FALSE(builder.validate().empty());
  }
  {
    WorkloadSpec bad;
    bad.request_bytes = 4096;  // cannot fit the default 4096-byte batch + framing
    ScenarioBuilder builder = base_builder(20);
    builder.workload(bad);
    EXPECT_FALSE(builder.validate().empty());
  }
  {
    WorkloadSpec bad;
    bad.arrival = Arrival::kClosedLoop;
    bad.in_flight = 0;
    ScenarioBuilder builder = base_builder(21);
    builder.workload(bad);
    EXPECT_FALSE(builder.validate().empty());
  }
}

}  // namespace
}  // namespace lumiere::workload
