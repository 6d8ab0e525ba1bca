// Cluster-level span attribution: a scripted partition forces re-sync
// episodes, and the tracer's spans must account for them — costs
// cross-checked against the MetricsCollector's independent send counting,
// byte-for-byte reproducible across identical runs, on both transports.
#include <gtest/gtest.h>

#include <sstream>

#include "crypto/sha256.h"
#include "obs/ledger.h"
#include "obs/tracer.h"
#include "runtime/cluster.h"
#include "sim/trace.h"

namespace lumiere::obs {
namespace {

using runtime::Cluster;
using runtime::ScenarioBuilder;

ScenarioBuilder partition_options(std::uint64_t seed) {
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(4, Duration::millis(10), /*x=*/4))
      .pacemaker("lumiere")
      .core("chained-hotstuff")
      .seed(seed)
      .delay(std::make_shared<sim::FixedDelay>(Duration::micros(500)));
  // No side holds a quorum: both halves stall, time out, and re-sync
  // through the pacemaker once healed.
  builder.partition({{0, 1}, {2, 3}}, TimePoint(Duration::seconds(2).ticks()));
  builder.heal(TimePoint(Duration::seconds(4).ticks()));
  return builder;
}

TEST(SpanAttributionTest, PartitionResyncEmitsAttributedSpans) {
  Cluster cluster(partition_options(4242));
  cluster.run_for(Duration::seconds(8));

  const SyncTracer* tracer = cluster.sync_tracer();
  ASSERT_NE(tracer, nullptr) << "tracer must default on";

  const CompletedSpans spans = tracer->completed_spans();
  ASSERT_FALSE(spans.empty()) << "a quorumless partition must force sync episodes";

  std::vector<std::uint64_t> span_msgs(4, 0);
  std::vector<std::uint64_t> span_auth(4, 0);
  bool some_span_in_partition = false;
  for (const SyncSpan& span : spans) {
    ASSERT_LT(span.node, 4U);
    EXPECT_TRUE(span.completed);
    EXPECT_GT(span.entered_view, span.from_view);
    EXPECT_GE(span.end, span.start);
    // sync_started fires immediately before the episode's first send, so
    // a completed episode carries at least that message and the share it
    // signed.
    EXPECT_GE(span.msgs_sent, 1U);
    EXPECT_GE(span.auth_ops(), 1U);
    span_msgs[span.node] += span.msgs_sent;
    span_auth[span.node] += span.auth.total();
    some_span_in_partition =
        some_span_in_partition || (span.start >= TimePoint(Duration::seconds(2).ticks()) &&
                                   span.end <= TimePoint(Duration::seconds(5).ticks()));
  }
  EXPECT_TRUE(some_span_in_partition) << "no episode bracketed inside the cut window";

  // Per node, attributed costs are bounded by the cumulative meters, and
  // the meters agree exactly with the MetricsCollector's independent
  // count (all nodes honest here): every network send was seen by both.
  std::uint64_t tracer_total_msgs = 0;
  std::uint64_t tracer_total_bytes = 0;
  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_LE(span_msgs[id], tracer->msgs_sent(id));
    EXPECT_LE(span_auth[id], tracer->auth_snapshot(id).total());
    tracer_total_msgs += tracer->msgs_sent(id);
    tracer_total_bytes += tracer->bytes_sent(id);
  }
  EXPECT_EQ(tracer_total_msgs, cluster.metrics().total_honest_msgs())
      << "tracer and metrics disagree on what was sent";
  EXPECT_EQ(tracer_total_bytes, cluster.metrics().total_honest_bytes());

  // The structured trace carries the episode boundaries.
  const auto started = cluster.trace().of_kind(sim::TraceKind::kSyncStarted);
  const auto completed = cluster.trace().of_kind(sim::TraceKind::kSyncCompleted);
  EXPECT_EQ(completed.size(), spans.size())
      << "one kSyncCompleted trace event per completed span";
  EXPECT_GE(started.size(), completed.size());
}

TEST(SpanAttributionTest, SpansAreDeterministic) {
  Cluster first(partition_options(4243));
  first.run_for(Duration::seconds(6));
  Cluster second(partition_options(4243));
  second.run_for(Duration::seconds(6));

  const auto a = first.sync_tracer()->completed_spans();
  const auto b = second.sync_tracer()->completed_spans();
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].from_view, b[i].from_view);
    EXPECT_EQ(a[i].target_view, b[i].target_view);
    EXPECT_EQ(a[i].entered_view, b[i].entered_view);
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].end, b[i].end);
    EXPECT_EQ(a[i].msgs_sent, b[i].msgs_sent);
    EXPECT_EQ(a[i].bytes_sent, b[i].bytes_sent);
    EXPECT_EQ(a[i].auth, b[i].auth);
  }
}

TEST(SpanAttributionTest, ExportsReadTheRingUnchanged) {
  // The ring's packed spans must export exactly what the unpacked spans
  // did: these digests were taken when the ring held SyncSpans whole.
  Cluster cluster(partition_options(4242));
  cluster.run_for(Duration::seconds(8));
  const CompletedSpans spans = cluster.sync_tracer()->completed_spans();
  ASSERT_FALSE(spans.empty());
  std::ostringstream jsonl;
  ComplexityLedger::write_jsonl(jsonl, "lumiere/n=4", spans);
  std::ostringstream chrome;
  ComplexityLedger::write_chrome_trace(chrome, spans);
  EXPECT_EQ(crypto::Sha256::hash(jsonl.str()).hex(),
            "167ecc6138c6ae51baf2ea8f17166d84f605027f697f71622dc586574aceb58a");
  EXPECT_EQ(crypto::Sha256::hash(chrome.str()).hex(),
            "2c9aa19e34b5b17f81d7161161fec2b4e553b1ed7c1a6e99f4847b05a5243552");
}

TEST(SpanAttributionTest, TracerCanBeDisabled) {
  ScenarioBuilder builder = partition_options(4244);
  ObsSpec spec;
  spec.tracer = false;
  builder.observability(spec);
  Cluster cluster(builder);
  cluster.run_for(Duration::seconds(1));
  EXPECT_EQ(cluster.sync_tracer(), nullptr);
  // node_status still answers, just without cost meters or spans.
  const NodeStatus status = cluster.node_status(0);
  EXPECT_EQ(status.msgs_sent, 0U);
  EXPECT_FALSE(status.current_sync.has_value());
  EXPECT_FALSE(status.last_sync.has_value());
}

TEST(SpanAttributionTest, SimNodeStatusReadsTheNode) {
  Cluster cluster(partition_options(4245));
  cluster.run_for(Duration::seconds(6));
  for (ProcessId id = 0; id < 4; ++id) {
    const NodeStatus status = cluster.node_status(id);
    EXPECT_EQ(status.node, id);
    EXPECT_EQ(status.view, cluster.node(id).current_view());
    EXPECT_EQ(status.height, cluster.node(id).ledger().size());
    EXPECT_EQ(status.msgs_sent, cluster.sync_tracer()->msgs_sent(id));
    EXPECT_EQ(status.pipeline_queue_depth, 0U) << "no pipeline on the simulator";
    ASSERT_TRUE(status.last_sync.has_value()) << "partition re-sync left no span";
    EXPECT_EQ(status.last_sync->node, id);
  }
  // The render is line-oriented and END-terminated (what the TCP
  // endpoint serves).
  const std::string rendered = render_status(cluster.node_status(0));
  EXPECT_NE(rendered.find("node 0\n"), std::string::npos);
  EXPECT_NE(rendered.find("view "), std::string::npos);
  EXPECT_NE(rendered.find("sync_last "), std::string::npos);
  EXPECT_EQ(rendered.substr(rendered.size() - 4), "END\n");
}

TEST(SpanAttributionTest, TcpSpansCarryCosts) {
  // Over real sockets the spans come from the same pacemaker signal; the
  // assertions are structural (wall-clock runs cannot pin exact counts —
  // but every completed episode still carries its own sends and auth ops).
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(4, Duration::millis(10), /*x=*/4))
      .pacemaker("lumiere")
      .core("chained-hotstuff")
      .seed(4646)
      .transport_tcp(27210);
  Cluster cluster(builder);
  for (int slice = 0; slice < 4; ++slice) {
    cluster.run_for(Duration::millis(200));  // wall-clock
    // No status ports, yet node_status serves the status board, which
    // agrees with the nodes between slices (driver threads joined).
    for (ProcessId id = 0; id < 4; ++id) {
      const NodeStatus status = cluster.node_status(id);
      const consensus::Ledger& ledger = cluster.node(id).ledger();
      EXPECT_EQ(cluster.status_port(id), 0);
      EXPECT_EQ(status.view, cluster.node(id).current_view());
      EXPECT_EQ(status.height, ledger.size());
      EXPECT_EQ(status.last_commit_height,
                ledger.empty() ? 0U : static_cast<std::uint64_t>(ledger.entries().back().view()));
    }
  }
  EXPECT_GT(cluster.node_status(0).height, 0U) << "no commits over TCP";

  const SyncTracer* tracer = cluster.sync_tracer();
  ASSERT_NE(tracer, nullptr);
  const CompletedSpans spans = tracer->completed_spans();
  ASSERT_FALSE(spans.empty()) << "no sync episode completed over TCP";
  for (const SyncSpan& span : spans) {
    ASSERT_LT(span.node, 4U);
    EXPECT_GT(span.entered_view, span.from_view);
    EXPECT_GE(span.msgs_sent, 1U);
    EXPECT_GE(span.auth_ops(), 1U);
    EXPECT_LE(span.msgs_sent, tracer->msgs_sent(span.node));
  }
  // The semantic auth counters ran on the driver threads.
  std::uint64_t total_auth = 0;
  for (ProcessId id = 0; id < 4; ++id) total_auth += tracer->auth_snapshot(id).total();
  EXPECT_GT(total_auth, 0U);
}

}  // namespace
}  // namespace lumiere::obs
