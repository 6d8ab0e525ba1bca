#include "runtime/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "crypto/authenticator.h"
#include "pacemaker/messages.h"
#include "runtime/cluster.h"
#include "sim/delay_policy.h"
#include "workload/spec.h"

namespace lumiere::runtime {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  MetricsTest() : metrics_(4, {false, false, false, true}) {}  // p3 Byzantine

  void send(TimePoint at, ProcessId from, ProcessId to) {
    const pacemaker::ViewMsg msg(
        1, crypto::threshold_share(auth_->signer_for(from), pacemaker::view_msg_statement(1)));
    metrics_.on_send(at, from, to, msg);
  }

  std::unique_ptr<crypto::Authenticator> auth_ =
      crypto::make_authenticator(crypto::kDefaultScheme, 4, 3);
  MetricsCollector metrics_;
};

TEST_F(MetricsTest, CountsHonestSendsOnly) {
  send(TimePoint(10), 0, 1);
  send(TimePoint(11), 3, 1);  // Byzantine sender: not counted
  send(TimePoint(12), 1, 1);  // self-send: not counted
  send(TimePoint(13), 2, 0);
  EXPECT_EQ(metrics_.total_honest_msgs(), 2U);
  EXPECT_EQ(metrics_.pacemaker_msgs(), 2U);
  EXPECT_EQ(metrics_.consensus_msgs(), 0U);
  EXPECT_EQ(metrics_.count_for_type(pacemaker::kViewMsg), 2U);
  EXPECT_GT(metrics_.total_honest_bytes(), 0U);
}

TEST_F(MetricsTest, BroadcastChargeEqualsPerSendExpansion) {
  // The bulk on_broadcast path must account exactly like n-1 on_send
  // calls — totals, per-type, per-class, and window queries.
  MetricsCollector bulk(4, {false, false, false, true});
  const pacemaker::ViewMsg msg(
      1, crypto::threshold_share(auth_->signer_for(0), pacemaker::view_msg_statement(1)));
  for (ProcessId to = 0; to < 4; ++to) metrics_.on_send(TimePoint(10), 0, to, msg);
  bulk.on_broadcast(TimePoint(10), 0, msg, 4);
  EXPECT_EQ(bulk.total_honest_msgs(), metrics_.total_honest_msgs());
  EXPECT_EQ(bulk.total_honest_bytes(), metrics_.total_honest_bytes());
  EXPECT_EQ(bulk.pacemaker_msgs(), metrics_.pacemaker_msgs());
  EXPECT_EQ(bulk.count_for_type(pacemaker::kViewMsg), 3U);
  EXPECT_EQ(bulk.msgs_between(TimePoint(10), TimePoint(11)),
            metrics_.msgs_between(TimePoint(10), TimePoint(11)));
  EXPECT_EQ(bulk.msgs_between(TimePoint(0), TimePoint(10)), 0U);

  // Byzantine broadcasters stay uncounted, as with per-send charging.
  bulk.on_broadcast(TimePoint(12), 3, msg, 4);
  EXPECT_EQ(bulk.total_honest_msgs(), 3U);
}

TEST_F(MetricsTest, DecisionLogAndWindows) {
  send(TimePoint(5), 0, 1);
  send(TimePoint(6), 0, 2);
  metrics_.record_qc_formed(TimePoint(10), 0, 0);  // decision 1 after 2 msgs
  send(TimePoint(15), 1, 2);
  send(TimePoint(16), 1, 0);
  send(TimePoint(17), 2, 0);
  metrics_.record_qc_formed(TimePoint(20), 1, 1);  // decision 2 after 3 more
  send(TimePoint(25), 2, 1);
  metrics_.record_qc_formed(TimePoint(40), 2, 2);  // decision 3 after 1 more

  ASSERT_EQ(metrics_.decisions().size(), 3U);
  EXPECT_EQ(metrics_.decisions()[0].msgs_before, 2U);
  EXPECT_EQ(metrics_.decisions()[1].msgs_before, 5U);

  // Latency to first decision from t=0: 10.
  const auto lat = metrics_.latency_to_first_decision(TimePoint::origin());
  ASSERT_TRUE(lat.has_value());
  EXPECT_EQ(*lat, Duration(10));

  // Max inter-decision gap: 40 - 20 = 20.
  const auto gap = metrics_.max_decision_gap(TimePoint::origin());
  ASSERT_TRUE(gap.has_value());
  EXPECT_EQ(*gap, Duration(20));

  // Max msg gap: decision2 - decision1 = 3 messages.
  const auto msg_gap = metrics_.max_msg_gap(TimePoint::origin());
  ASSERT_TRUE(msg_gap.has_value());
  EXPECT_EQ(*msg_gap, 3U);

  // Warmup skips the first window: max over remaining = 1.
  EXPECT_EQ(metrics_.max_msg_gap(TimePoint::origin(), 1).value(), 1U);
}

TEST_F(MetricsTest, ByzantineLeaderQcIsNotADecision) {
  metrics_.record_qc_formed(TimePoint(10), 5, 3);  // p3 is Byzantine
  EXPECT_TRUE(metrics_.decisions().empty());
}

TEST_F(MetricsTest, MsgsBetween) {
  send(TimePoint(10), 0, 1);
  send(TimePoint(20), 0, 1);
  send(TimePoint(30), 0, 1);
  EXPECT_EQ(metrics_.msgs_between(TimePoint(0), TimePoint(15)), 1U);
  EXPECT_EQ(metrics_.msgs_between(TimePoint(10), TimePoint(30)), 2U)
      << "[10, 30): includes the sends at 10 and 20, excludes the one at 30";
  EXPECT_EQ(metrics_.msgs_between(TimePoint(0), TimePoint(31)), 3U);
  EXPECT_EQ(metrics_.msgs_between(TimePoint(40), TimePoint(50)), 0U);
}

TEST_F(MetricsTest, FirstDecisionIndexAfter) {
  metrics_.record_qc_formed(TimePoint(10), 0, 0);
  metrics_.record_qc_formed(TimePoint(20), 1, 1);
  EXPECT_EQ(metrics_.first_decision_index_after(TimePoint(0)), 0U);
  EXPECT_EQ(metrics_.first_decision_index_after(TimePoint(10)), 0U);
  EXPECT_EQ(metrics_.first_decision_index_after(TimePoint(11)), 1U);
  EXPECT_EQ(metrics_.first_decision_index_after(TimePoint(21)), 2U);
  EXPECT_FALSE(metrics_.latency_to_first_decision(TimePoint(21)).has_value());
}

TEST_F(MetricsTest, EmptyCollectorEdgeCases) {
  EXPECT_FALSE(metrics_.latency_to_first_decision(TimePoint::origin()).has_value());
  EXPECT_FALSE(metrics_.max_decision_gap(TimePoint::origin()).has_value());
  EXPECT_FALSE(metrics_.max_msg_gap(TimePoint::origin()).has_value());
  EXPECT_FALSE(metrics_.msgs_to_first_decision(TimePoint::origin()).has_value());
  EXPECT_EQ(metrics_.msgs_between(TimePoint(0), TimePoint(100)), 0U);
}

TEST_F(MetricsTest, RecordingWindowBracketsThreadedSlices) {
  metrics_.enable_threaded();
  EXPECT_FALSE(metrics_.recording_window_open());

  metrics_.begin_recording_window();
  EXPECT_TRUE(metrics_.recording_window_open());
  send(TimePoint(10), 0, 1);  // recording during the window is the point
  metrics_.end_recording_window();
  EXPECT_FALSE(metrics_.recording_window_open());

  // Between slices, queries replay the captured events.
  EXPECT_EQ(metrics_.total_honest_msgs(), 1U);

  // A second slice appends to the same stream.
  metrics_.begin_recording_window();
  send(TimePoint(20), 2, 0);
  metrics_.end_recording_window();
  EXPECT_EQ(metrics_.total_honest_msgs(), 2U);
  EXPECT_EQ(metrics_.msgs_between(TimePoint(0), TimePoint(15)), 1U);
}

TEST_F(MetricsTest, QueryDuringLiveWindowAborts) {
  metrics_.enable_threaded();
  metrics_.begin_recording_window();
  // The documented footgun, now fatal instead of a silent data race: log
  // references returned mid-slice would dangle on the next merge.
  EXPECT_DEATH((void)metrics_.total_honest_msgs(), "queried during a live TCP run_for slice");
}

/// Forwards every send to the cluster's collector and keeps the
/// per-send reference log the collector used to keep: one (time,
/// cumulative total) entry per send call.
class PerSendLog final : public sim::NetworkObserver {
 public:
  explicit PerSendLog(MetricsCollector* metrics) : metrics_(metrics) {}

  void on_send(TimePoint at, ProcessId from, ProcessId to, const Message& msg) override {
    metrics_->on_send(at, from, to, msg);
    note(at);
  }
  void on_deliver(TimePoint at, ProcessId from, ProcessId to, const Message& msg) override {
    metrics_->on_deliver(at, from, to, msg);
  }
  void on_broadcast(TimePoint at, ProcessId from, const Message& msg, std::uint32_t n) override {
    metrics_->on_broadcast(at, from, msg, n);
    note(at);
  }

  /// Window sum over a per-send log, by the collector's read rule.
  static std::uint64_t between(const std::vector<std::pair<TimePoint, std::uint64_t>>& log,
                               TimePoint from, TimePoint to) {
    const auto until = [&log](TimePoint t) -> std::uint64_t {
      std::uint64_t total = 0;
      for (const auto& [at, cumulative] : log) {
        if (at < t) total = cumulative;
      }
      return total;
    };
    return until(to) - until(from);
  }

  std::vector<std::pair<TimePoint, std::uint64_t>> msgs;
  std::vector<std::pair<TimePoint, std::uint64_t>> dissem_bytes;
  std::set<TimePoint> instants;

 private:
  void note(TimePoint at) {
    msgs.emplace_back(at, metrics_->total_honest_msgs());
    dissem_bytes.emplace_back(at, metrics_->dissem_bytes());
    instants.insert(at);
  }

  MetricsCollector* metrics_;
};

TEST(MetricsSendLogTest, OneCheckpointPerInstantAnswersLikePerSendLogging) {
  workload::WorkloadSpec spec;
  spec.arrival = workload::Arrival::kConstant;
  spec.clients_per_node = 1;
  spec.rate_per_client = 100.0;
  spec.request_bytes = 64;
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(7, Duration::millis(10)));
  builder.pacemaker("lumiere");
  builder.core("chained-hotstuff");
  builder.seed(7);
  builder.delay(std::make_shared<sim::UniformDelay>(Duration::micros(200), Duration::millis(2)));
  builder.workload(spec);
  builder.dissemination();
  Cluster cluster(builder);
  PerSendLog reference(&cluster.metrics());
  cluster.network().set_observer(&reference);
  cluster.run_for(Duration::seconds(3));

  const MetricsCollector& metrics = cluster.metrics();
  ASSERT_GT(metrics.total_honest_msgs(), 1000U);
  ASSERT_GT(metrics.dissem_bytes(), 0U);
  EXPECT_LE(metrics.send_checkpoints(), reference.instants.size());
  EXPECT_LE(metrics.dissem_send_checkpoints(), reference.instants.size());
  EXPECT_LT(metrics.send_checkpoints(), reference.msgs.size())
      << "broadcasts and same-instant sends must share a checkpoint";

  // Windows on both sides of, and exactly at, send instants.
  std::vector<TimePoint> edges = {TimePoint::origin()};
  for (std::int64_t us = 0; us <= 3'000'000; us += 37'000) {
    edges.push_back(TimePoint::origin() + Duration::micros(us));
  }
  std::size_t stride = 0;
  for (const TimePoint at : reference.instants) {
    if (++stride % 97 == 0) edges.push_back(at);
  }
  std::sort(edges.begin(), edges.end());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const std::size_t j = std::min(edges.size() - 1, i + 1 + i % 5);
    EXPECT_EQ(metrics.msgs_between(edges[i], edges[j]),
              PerSendLog::between(reference.msgs, edges[i], edges[j]));
    EXPECT_EQ(metrics.dissem_bytes_between(edges[i], edges[j]),
              PerSendLog::between(reference.dissem_bytes, edges[i], edges[j]));
  }
}

}  // namespace
}  // namespace lumiere::runtime
