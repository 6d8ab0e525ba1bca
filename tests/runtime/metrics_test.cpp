#include "runtime/metrics.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "crypto/authenticator.h"
#include "dissem/messages.h"
#include "pacemaker/messages.h"
#include "sync/messages.h"

namespace lumiere::runtime {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  MetricsTest() : metrics_(4, {false, false, false, true}) {}  // p3 Byzantine

  /// One copy from `from` to another process (the send tap never shows
  /// the collector a self-copy).
  void send(TimePoint at, ProcessId from) {
    const pacemaker::ViewMsg msg(
        1, crypto::threshold_share(auth_->signer_for(from), pacemaker::view_msg_statement(1)));
    metrics_.record_send(at, from, msg, msg.wire_size());
  }

  std::unique_ptr<crypto::Authenticator> auth_ =
      crypto::make_authenticator(crypto::kDefaultScheme, 4, 3);
  MetricsCollector metrics_;
};

TEST_F(MetricsTest, CountsHonestSendsOnly) {
  send(TimePoint(10), 0);
  send(TimePoint(11), 3);  // Byzantine sender: not counted
  send(TimePoint(13), 2);
  EXPECT_EQ(metrics_.total_honest_msgs(), 2U);
  EXPECT_EQ(metrics_.pacemaker_msgs(), 2U);
  EXPECT_EQ(metrics_.consensus_msgs(), 0U);
  EXPECT_EQ(metrics_.count_for_type(pacemaker::kViewMsg), 2U);
  EXPECT_GT(metrics_.total_honest_bytes(), 0U);
  EXPECT_EQ(metrics_.bytes_for_type(pacemaker::kViewMsg), metrics_.total_honest_bytes());
  EXPECT_EQ(metrics_.bytes_for_type(pacemaker::kVcMsg), 0U);
}

TEST_F(MetricsTest, DecisionLogAndWindows) {
  send(TimePoint(5), 0);
  send(TimePoint(6), 0);
  metrics_.record_qc_formed(TimePoint(10), 0, 0);  // decision 1 after 2 msgs
  send(TimePoint(15), 1);
  send(TimePoint(16), 1);
  send(TimePoint(17), 2);
  metrics_.record_qc_formed(TimePoint(20), 1, 1);  // decision 2 after 3 more
  send(TimePoint(25), 2);
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
  EXPECT_EQ(metrics_.total_honest_msgs(), 0U);
}

TEST_F(MetricsTest, RecordingWindowBracketsThreadedSlices) {
  metrics_.enable_threaded();
  EXPECT_FALSE(metrics_.recording_window_open());

  metrics_.begin_recording_window();
  EXPECT_TRUE(metrics_.recording_window_open());
  send(TimePoint(10), 0);  // recording during the window is the point
  metrics_.end_recording_window();
  EXPECT_FALSE(metrics_.recording_window_open());

  // Between slices, queries replay the captured events.
  EXPECT_EQ(metrics_.total_honest_msgs(), 1U);

  // A second slice appends to the same stream.
  metrics_.begin_recording_window();
  send(TimePoint(20), 2);
  metrics_.end_recording_window();
  EXPECT_EQ(metrics_.total_honest_msgs(), 2U);
}

TEST_F(MetricsTest, QueryDuringLiveWindowAborts) {
  metrics_.enable_threaded();
  metrics_.begin_recording_window();
  // The documented footgun, now fatal instead of a silent data race: log
  // references returned mid-slice would dangle on the next merge.
  EXPECT_DEATH((void)metrics_.total_honest_msgs(), "queried during a live TCP run_for slice");
}

/// One recording call of the replay test, applied to any collector.
struct Op {
  enum class Kind { kSend, kQc, kDepth, kCert } kind;
  TimePoint at;
  ProcessId node;
  std::uint64_t value;  ///< wire bytes, view, depth or latency ticks
  const Message* msg = nullptr;

  void apply(MetricsCollector& metrics) const {
    switch (kind) {
      case Kind::kSend:
        metrics.record_send(at, node, *msg, value);
        break;
      case Kind::kQc:
        metrics.record_qc_formed(at, static_cast<View>(value), node);
        break;
      case Kind::kDepth:
        metrics.record_queue_depth(at, node, value);
        break;
      case Kind::kCert:
        metrics.record_batch_certified(at, Duration(static_cast<std::int64_t>(value)));
        break;
    }
  }
};

TEST(MetricsReplayTest, ThreadedOutOfOrderReplayEqualsInOrderRecording) {
  const std::vector<bool> byzantine = {false, false, false, true};  // p3 Byzantine
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, 4, 3);
  const pacemaker::ViewMsg view_msg(
      1, crypto::threshold_share(auth->signer_for(0), pacemaker::view_msg_statement(1)));
  const sync::BlockFetchMsg fetch(crypto::Digest{}, 8);
  const dissem::BatchPushMsg push(dissem::BatchId{}, std::vector<std::uint8_t>(64));
  const Message* const messages[] = {&view_msg, &fetch, &push};

  // One op per instant, p3's among them (filtered on both sides): within
  // an instant the replay orders by capture sequence, which two threads
  // do not fix, so distinct instants make the in-order answer unique.
  std::vector<Op> ops;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const TimePoint at(static_cast<std::int64_t>(10 * i + i % 7));
    const auto node = static_cast<ProcessId>(i % 4);
    switch (i % 9) {
      case 4:
        ops.push_back({Op::Kind::kQc, at, node, i / 9});
        break;
      case 6:
        ops.push_back({Op::Kind::kDepth, at, node, i % 13});
        break;
      case 8:
        ops.push_back({Op::Kind::kCert, at, node, 100 + (i * 37) % 500});
        break;
      default:
        ops.push_back({Op::Kind::kSend, at, node, 40 + i % 11, messages[i % 3]});
        break;
    }
  }

  MetricsCollector in_order(4, byzantine);
  for (const Op& op : ops) op.apply(in_order);

  // Each thread records its half newest first, so nearly every event
  // reaches the shards out of time order.
  MetricsCollector threaded(4, byzantine);
  threaded.enable_threaded();
  threaded.begin_recording_window();
  std::vector<std::thread> threads;
  for (std::size_t parity = 0; parity < 2; ++parity) {
    threads.emplace_back([&ops, &threaded, parity] {
      for (std::size_t i = ops.size(); i-- > 0;) {
        if (i % 2 == parity) ops[i].apply(threaded);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  threaded.end_recording_window();

  const auto& want = in_order.decisions();
  const auto& got = threaded.decisions();
  ASSERT_GT(want.size(), 100U);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].at, want[i].at) << "decision " << i;
    EXPECT_EQ(got[i].view, want[i].view) << "decision " << i;
    EXPECT_EQ(got[i].leader, want[i].leader) << "decision " << i;
    EXPECT_EQ(got[i].msgs_before, want[i].msgs_before) << "decision " << i;
  }
  EXPECT_EQ(threaded.total_honest_msgs(), in_order.total_honest_msgs());
  EXPECT_EQ(threaded.total_honest_bytes(), in_order.total_honest_bytes());
  EXPECT_EQ(threaded.pacemaker_msgs(), in_order.pacemaker_msgs());
  EXPECT_EQ(threaded.sync_msgs(), in_order.sync_msgs());
  EXPECT_EQ(threaded.dissem_msgs(), in_order.dissem_msgs());
  EXPECT_EQ(threaded.dissem_bytes(), in_order.dissem_bytes());
  for (const Message* msg : messages) {
    EXPECT_EQ(threaded.count_for_type(msg->type_id()), in_order.count_for_type(msg->type_id()));
    EXPECT_EQ(threaded.bytes_for_type(msg->type_id()), in_order.bytes_for_type(msg->type_id()));
  }
  const auto& want_depth = in_order.queue_depth_log();
  const auto& got_depth = threaded.queue_depth_log();
  ASSERT_EQ(got_depth.size(), want_depth.size());
  for (std::size_t i = 0; i < want_depth.size(); ++i) {
    EXPECT_EQ(got_depth[i].at, want_depth[i].at) << "depth sample " << i;
    EXPECT_EQ(got_depth[i].node, want_depth[i].node) << "depth sample " << i;
    EXPECT_EQ(got_depth[i].depth, want_depth[i].depth) << "depth sample " << i;
  }
  EXPECT_EQ(threaded.batches_certified(), in_order.batches_certified());
  EXPECT_EQ(threaded.batch_cert_latency_percentile(0.5),
            in_order.batch_cert_latency_percentile(0.5));
  EXPECT_EQ(threaded.max_msg_gap(TimePoint::origin()), in_order.max_msg_gap(TimePoint::origin()));
}

}  // namespace
}  // namespace lumiere::runtime
