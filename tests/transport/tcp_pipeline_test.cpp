// The staged verification pipeline on the TCP transport, end to end:
// ScenarioBuilder::pipeline() turns on per-node decode+verify worker
// pools, consensus still happens, ledgers still agree, and the fault
// schedule stops/starts the pools with their node. Also the sim-vs-TCP
// metrics parity claims: Cluster::workload_report() and the
// MetricsCollector must tell the same story on both transports.
//
// Wall-clock smoke tests: ports 25640-25706 (earlier transport tests own
// 25480-25620).
#include <gtest/gtest.h>

#include "crypto/authenticator.h"
#include "fuzz/oracles.h"
#include "runtime/cluster.h"
#include "workload/report.h"
#include "workload/spec.h"

// Wall-clock budgets below assume release-ish codegen. Sanitizer builds
// run the signature arithmetic 5-20x slower, so the crypto-heavy smoke
// test scales its run window to keep the commit assertions meaningful.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define LUMIERE_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define LUMIERE_TEST_SANITIZED 1
#endif
#endif

namespace lumiere::runtime {
namespace {

#ifdef LUMIERE_TEST_SANITIZED
constexpr int kSanitizerHeadroom = 6;
#else
constexpr int kSanitizerHeadroom = 1;
#endif

/// Some registered scheme with real (non-trivial) verification cost —
/// i.e. anything other than the HMAC sim default. Falls back to the
/// default if the registry only has one scheme.
std::string real_scheme() {
  for (const auto& name : crypto::scheme_names()) {
    if (name != crypto::kDefaultScheme) return name;
  }
  return crypto::kDefaultScheme;
}

workload::WorkloadSpec constant_load() {
  workload::WorkloadSpec spec;
  spec.arrival = workload::Arrival::kConstant;
  spec.clients_per_node = 1;
  spec.rate_per_client = 200.0;
  return spec;
}

TEST(TcpPipelineTest, PipelinedClusterCommitsUnderRealSignatures) {
  // The headline configuration: a real signature scheme whose checks are
  // too slow to leave on the critical thread, with the worker pools
  // taking them. Consensus must still happen and replicas must agree.
  PipelineSpec pipeline;
  pipeline.enabled = true;
  pipeline.workers = 4;
  pipeline.queue_capacity = 256;
  // Δ scales with the sanitizer headroom too: leaving it at the native
  // 10ms under TSan makes every view time out before its quorum's
  // signatures clear the (sanitizer-slowed) checks, so views advance
  // forever without a single commit.
  ScenarioBuilder builder;
  builder.params(
          ProtocolParams::for_n(4, Duration::millis(10 * kSanitizerHeadroom), /*x=*/4))
      .pacemaker("lumiere")
      .core("chained-hotstuff")
      .seed(81)
      .auth_scheme(real_scheme())
      .pipeline(pipeline)
      .workload(constant_load())
      .transport_tcp(25640);
  Cluster cluster(builder);
  cluster.run_for(Duration::millis(1200 * kSanitizerHeadroom));  // wall-clock

  std::size_t shortest = SIZE_MAX;
  for (ProcessId id = 0; id < cluster.n(); ++id) {
    EXPECT_GE(cluster.node(id).current_view(), 3)
        << "node " << id << " made no view progress with the pipeline on";
    shortest = std::min(shortest, cluster.node(id).ledger().size());
  }
  ASSERT_GT(shortest, 0U) << "no commits with the pipeline on";
  for (std::size_t i = 0; i < shortest; ++i) {
    const auto& reference = cluster.node(0).ledger().entries()[i].hash();
    for (ProcessId id = 1; id < cluster.n(); ++id) {
      EXPECT_EQ(cluster.node(id).ledger().entries()[i].hash(), reference)
          << "SMR logs diverged with staged verification at index " << i;
    }
  }
  EXPECT_GT(cluster.workload_report().committed, 0U);

  // Every node's pool actually carried traffic, and the off-thread
  // checks passed (honest cluster: all claims are genuine).
  for (ProcessId id = 0; id < cluster.n(); ++id) {
    const VerifyPipeline* pool = cluster.pipeline(id);
    ASSERT_NE(pool, nullptr) << "pipeline(on) must build a pool per node";
    const auto stats = pool->stats();
    EXPECT_GT(stats.frames_in, 0U) << "node " << id << " never fed its pool";
    EXPECT_GT(stats.frames_out, 0U);
    EXPECT_GT(stats.claims_checked, 0U);
    EXPECT_GT(stats.claims_passed, 0U);
    EXPECT_EQ(stats.decode_failures, 0U) << "honest peers sent garbage?";
  }
}

TEST(TcpPipelineTest, ForwardedRequestsCommitExactlyOnceAtNSeven) {
  // Request forwarding over sockets with the verify pipeline on: a
  // leader's proposal runs from a zero-delay event on its driver thread,
  // after the socket poll and the pipeline drain that opened its gate
  // (consensus/chained_core.h). Clients stop well before the run does,
  // so every request they submitted has time to commit.
  PipelineSpec pipeline;
  pipeline.enabled = true;
  pipeline.workers = 2;
  pipeline.queue_capacity = 256;
  workload::WorkloadSpec clients;
  clients.arrival = workload::Arrival::kPoisson;
  clients.clients_per_node = 2;
  clients.rate_per_client = 50.0;
  clients.stop = TimePoint(Duration::millis(800 * kSanitizerHeadroom).ticks());
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(7, Duration::millis(10 * kSanitizerHeadroom), /*x=*/4))
      .pacemaker("lumiere")
      .core("chained-hotstuff")
      .seed(85)
      .pipeline(pipeline)
      .workload(clients)
      .transport_tcp(25700);
  Cluster cluster(builder);
  cluster.run_for(Duration::millis(2000 * kSanitizerHeadroom));  // wall-clock

  const workload::Report report = cluster.workload_report();
  EXPECT_GT(report.committed, 0U) << "no requests committed over TCP";
  EXPECT_EQ(report.committed, report.admitted) << "an admitted request never committed";
  EXPECT_EQ(report.outstanding, 0U);
  EXPECT_EQ(report.commit_misses, 0U);
  EXPECT_EQ(fuzz::check_exactly_once(cluster), std::nullopt);
}

TEST(TcpPipelineTest, CrashStopsThePoolAndRecoverRestartsIt) {
  // The fault schedule owns the pool lifecycle: a scripted crash joins
  // the crashed node's workers (in-flight frames discarded, like any
  // crashed process's memory) and recovery restarts them; the node then
  // rejoins consensus through its fresh pool.
  PipelineSpec pipeline;
  pipeline.enabled = true;
  pipeline.workers = 2;
  pipeline.queue_capacity = 128;
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(4, Duration::millis(10), /*x=*/4))
      .pacemaker("lumiere")
      .seed(82)
      .auth_scheme(real_scheme())
      .pipeline(pipeline)
      .transport_tcp(25660);
  builder.crash(3, TimePoint(Duration::millis(250).ticks()));
  builder.recover(3, TimePoint(Duration::millis(550).ticks()));
  Cluster cluster(builder);
  cluster.run_for(Duration::millis(1000));  // wall-clock

  // The three always-up nodes — exactly 2f+1 — advanced through the
  // outage, each through its own pool.
  for (ProcessId id = 0; id < 3; ++id) {
    EXPECT_GE(cluster.node(id).current_view(), 3)
        << "node " << id << " stalled during node 3's outage";
    EXPECT_GT(cluster.pipeline(id)->stats().frames_in, 0U);
  }
  // Node 3's pool survived the stop/start cycle and is running again.
  const VerifyPipeline* revived = cluster.pipeline(3);
  ASSERT_NE(revived, nullptr);
  EXPECT_TRUE(revived->running()) << "recover must restart the worker pool";
  EXPECT_GT(revived->stats().frames_in, 0U) << "node 3 never processed a frame";
}

/// One scenario shape, run on whichever transport the caller picks; the
/// parity tests below compare the two tellings.
Cluster make_measured_cluster(bool tcp, std::uint16_t port, std::uint64_t seed) {
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(4, Duration::millis(10), /*x=*/4))
      .pacemaker("lumiere")
      .core("chained-hotstuff")
      .seed(seed)
      .workload(constant_load());
  if (tcp) builder.transport_tcp(port);
  return Cluster(builder);
}

TEST(TcpPipelineTest, MetricsAndWorkloadReportFillOnSim) {
  Cluster cluster = make_measured_cluster(/*tcp=*/false, 0, 83);
  cluster.run_for(Duration::seconds(3));  // simulated time
  const workload::Report report = cluster.workload_report();
  ASSERT_GT(report.committed, 0U);
  EXPECT_TRUE(report.latency_percentile(0.5).has_value());
  EXPECT_GT(cluster.metrics().total_honest_msgs(), 0U);
  EXPECT_FALSE(cluster.metrics().decisions().empty());
}

TEST(TcpPipelineTest, MetricsAndWorkloadReportFillOnTcp) {
  // The same claims over real sockets: this is the regression test for
  // the old TCP metrics gap, where the collector was sim-wired and a TCP
  // run reported empty windows. Driver threads record concurrently into
  // the sharded collector; queries merge after run_for joins them.
  Cluster cluster = make_measured_cluster(/*tcp=*/true, 25680, 84);
  cluster.run_for(Duration::millis(1200));  // wall-clock
  const workload::Report report = cluster.workload_report();
  ASSERT_GT(report.committed, 0U) << "no requests committed over TCP";
  EXPECT_TRUE(report.latency_percentile(0.5).has_value());
  EXPECT_GT(cluster.metrics().total_honest_msgs(), 0U)
      << "protocol traffic invisible to metrics over TCP";
  EXPECT_GT(cluster.metrics().consensus_msgs(), 0U);
  EXPECT_FALSE(cluster.metrics().decisions().empty())
      << "no decisions recorded over TCP (the historical gap)";
}

}  // namespace
}  // namespace lumiere::runtime
