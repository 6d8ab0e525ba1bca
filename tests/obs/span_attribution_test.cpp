// Cluster-level span attribution: a scripted partition forces re-sync
// episodes, and the tracer's spans must account for them — bounded by
// the per-node meters, which the send tap charges with the same copies as
// the MetricsCollector, byte-for-byte reproducible across identical runs,
// on both transports.
#include <gtest/gtest.h>

#include <sstream>

#include "adversary/behaviors.h"
#include "core/epoch_math.h"
#include "crypto/sha256.h"
#include "obs/ledger.h"
#include "obs/tracer.h"
#include "runtime/cluster.h"
#include "sim/trace.h"
#include "workload/engine.h"

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

/// A completed span carries at least the send its sync_started signal
/// came with, except in two cases that send nothing by design:
///  * a leader-directed view message to the node itself (it leads the
///    target view), which no network carries;
///  * an epoch view the node parked at and left within Delta: Algorithm 1
///    line 11 sends the epoch message only Delta after pausing, and a QC
///    or EC inside that wait unparks with nothing sent (pinned by
///    LumiereUnitTest.UnparkWithinDeltaSendsNoEpochMessage).
bool sends_nothing_by_design(Cluster& cluster, const SyncSpan& span) {
  const ProtocolParams& params = cluster.scenario().params;
  const View views_per_epoch = core::EpochMath::kSegmentsPerEpoch * 2 * View{params.n};
  const bool leads_target =
      cluster.node(span.node).pacemaker().leader_of(span.target_view) == span.node;
  const bool unparked_within_delta =
      span.target_view % views_per_epoch == 0 && span.duration() <= params.delta_cap;
  return leads_target || unparked_within_delta;
}

TEST(SpanAttributionTest, PartitionResyncEmitsAttributedSpans) {
  Cluster cluster(partition_options(4242));
  cluster.run_for(Duration::seconds(8));

  const SyncTracer* tracer = cluster.sync_tracer();
  ASSERT_NE(tracer, nullptr) << "every cluster has a tracer";

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
    // sync_started fires immediately before the episode's first
    // view-sync send, so a completed episode carries at least that
    // message unless it sends nothing by design. Either way the node
    // signed its share.
    EXPECT_TRUE(span.msgs_sent >= 1 || sends_nothing_by_design(cluster, span))
        << "node " << span.node << " span to view " << span.target_view << " charged no send"
        << " (closed after " << span.duration().ticks() << " us)";
    EXPECT_GE(span.auth_ops(), 1U);
    span_msgs[span.node] += span.msgs_sent;
    span_auth[span.node] += span.auth.total();
    some_span_in_partition =
        some_span_in_partition || (span.start >= TimePoint(Duration::seconds(2).ticks()) &&
                                   span.end <= TimePoint(Duration::seconds(5).ticks()));
  }
  EXPECT_TRUE(some_span_in_partition) << "no episode bracketed inside the cut window";

  // Per node, attributed costs are bounded by the cumulative meters, and
  // the meters agree exactly with the MetricsCollector's count (all nodes
  // honest here): one send tap charges both with every network send.
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
  std::uint64_t all_span_msgs = 0;
  for (const std::uint64_t msgs : span_msgs) all_span_msgs += msgs;
  EXPECT_GT(all_span_msgs, 0U);
  // A view share riding a NewView counts in its span as the ViewMsg it
  // stands for, while the metrics charge its carrier as a NewView.
  std::uint64_t riding_shares = 0;
  for (ProcessId id = 0; id < 4; ++id) riding_shares += cluster.node(id).riding_shares();
  EXPECT_LE(all_span_msgs, cluster.metrics().pacemaker_msgs() + riding_shares)
      << "a span charges view-sync messages only: pacemaker-class ones and riding shares";

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
  // did: these digests were taken when the ring held SyncSpans whole,
  // and re-taken when leaders started proposing at the end of the
  // instant their gate opened (block contents, and so the bytes a sync
  // episode counts, moved), again when leaders stopped sending VCs
  // to processes already in the VC's view (each episode counts fewer
  // messages and bytes), again when a leader's second view started
  // from its own QC (views end sooner, so episodes start and end at
  // other instants), and again when spans started counting view-sync
  // (pacemaker-class) messages only (the consensus traffic an episode
  // used to carry left its msgs and bytes; reading the all-class meter
  // instead reproduces the previous digests).
  Cluster cluster(partition_options(4242));
  cluster.run_for(Duration::seconds(8));
  const CompletedSpans spans = cluster.sync_tracer()->completed_spans();
  ASSERT_FALSE(spans.empty());
  std::ostringstream jsonl;
  ComplexityLedger::write_jsonl(jsonl, "lumiere/n=4", spans);
  std::ostringstream chrome;
  ComplexityLedger::write_chrome_trace(chrome, spans);
  EXPECT_EQ(crypto::Sha256::hash(jsonl.str()).hex(),
            "b3a00cc4f6e00ba39b956133abcaaaf107399d358ab6eb0bee2fb9bba02e99bc");
  EXPECT_EQ(crypto::Sha256::hash(chrome.str()).hex(),
            "461a2661ff608128caf1dcd362d77662cd4334b650b109f320f4e9de3b948bc5");
}

TEST(SpanAttributionTest, SimNodeStatusReadsTheNode) {
  // The simulator serves the same per-node record as TCP: every field is
  // fed by the node's observers and workload hooks, and must agree with
  // what the node, its ledger and its workload engine say directly. The
  // clients stop a second before the end, so every mempool has drained
  // and the depth gauge must read 0, not its last non-zero sample.
  ScenarioBuilder builder = partition_options(4245);
  workload::WorkloadSpec clients;
  clients.rate_per_client = 100.0;
  clients.stop = TimePoint(Duration::seconds(5).ticks());
  builder.workload(clients);
  builder.behaviors(adversary::byzantine_set(
      {3}, [](ProcessId) { return std::make_unique<adversary::SilentLeaderBehavior>(); }));
  Cluster cluster(builder);
  cluster.run_for(Duration::seconds(6));

  const std::vector<bool> byzantine = cluster.byzantine_mask();
  ASSERT_TRUE(byzantine[3]);
  std::vector<std::size_t> last_depth(4, 0);
  for (const auto& sample : cluster.metrics().queue_depth_log()) {
    last_depth.at(sample.node) = sample.depth;
  }
  std::uint64_t requests = 0;
  for (ProcessId id = 0; id < 4; ++id) {
    const NodeStatus status = cluster.node_status(id);
    const consensus::Ledger& ledger = cluster.node(id).ledger();
    const workload::NodeWorkload* engine = cluster.node_workload(id);
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(status.node, id);
    EXPECT_EQ(status.view, cluster.node(id).current_view());
    EXPECT_EQ(status.height, ledger.size());
    ASSERT_FALSE(ledger.empty());
    EXPECT_EQ(status.last_commit_height,
              static_cast<std::uint64_t>(ledger.entries().back().view()));
    EXPECT_EQ(status.ever_byzantine, byzantine[id]);
    EXPECT_EQ(status.requests_committed, engine->stats().committed);
    // The depth log holds drains only, so its last sample is the
    // non-zero depth a stale gauge would keep.
    EXPECT_GT(last_depth[id], 0U) << "node " << id << " never drained a non-empty mempool";
    EXPECT_EQ(engine->mempool().pending(), 0U) << "node " << id << " never drained";
    EXPECT_EQ(status.mempool_depth, 0U) << "node " << id << ": the gauge outlived its mempool";
    EXPECT_EQ(status.msgs_sent, cluster.sync_tracer()->msgs_sent(id));
    EXPECT_EQ(status.pipeline_queue_depth, 0U) << "no pipeline on the simulator";
    ASSERT_TRUE(status.last_sync.has_value()) << "partition re-sync left no span";
    EXPECT_EQ(status.last_sync->node, id);
    requests += status.requests_committed;
  }
  EXPECT_GT(requests, 0U) << "no client request committed";
  EXPECT_EQ(requests, cluster.workload_report().committed);
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
  // but every completed episode still carries its own sends and auth ops,
  // by the same rule as on the sim network: the adapter self-delivers at
  // the current instant, never inside the sending handler).
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(4, Duration::millis(10), /*x=*/4))
      .pacemaker("lumiere")
      .core("chained-hotstuff")
      .seed(4646)
      .transport_tcp(27210);
  Cluster cluster(builder);
  for (int slice = 0; slice < 4; ++slice) {
    cluster.run_for(Duration::millis(200));  // wall-clock
    // No status ports, yet node_status serves the tracer's record, which
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
    EXPECT_TRUE(span.msgs_sent >= 1 || sends_nothing_by_design(cluster, span))
        << "node " << span.node << " span to view " << span.target_view << " charged no send"
        << " (closed after " << span.duration().ticks() << " us)";
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
