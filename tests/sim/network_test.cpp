#include "sim/network.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/delay_policy.h"

namespace lumiere::sim {
namespace {

/// A trivial message for transport tests.
class PingMsg final : public Message {
 public:
  explicit PingMsg(std::uint32_t value) : value_(value) {}
  [[nodiscard]] std::uint32_t value() const { return value_; }
  std::uint32_t type_id() const override { return 0x3001; }
  const char* type_name() const override { return "ping"; }
  MsgClass msg_class() const override { return MsgClass::kPacemaker; }
  std::size_t wire_size() const override { return 4; }
  void serialize(ser::Writer& w) const override { w.u32(value_); }

 private:
  std::uint32_t value_;
};

struct Delivery {
  TimePoint at;
  ProcessId from;
  ProcessId to;
};

class NetworkTest : public ::testing::Test {
 protected:
  void build(TimePoint gst, Duration delta, std::shared_ptr<DelayPolicy> policy) {
    net_ = std::make_unique<Network>(&sim_, 4, gst, delta, std::move(policy), 7);
    for (ProcessId id = 0; id < 4; ++id) {
      net_->register_endpoint(id, [this, id](ProcessId from, const MessagePtr&) {
        log_.push_back(Delivery{sim_.now(), from, id});
      });
    }
  }

  Simulator sim_;
  std::unique_ptr<Network> net_;
  std::vector<Delivery> log_;
};

TEST_F(NetworkTest, FixedDelayDelivers) {
  build(TimePoint::origin(), Duration::millis(10), std::make_shared<FixedDelay>(Duration(100)));
  net_->send(0, 1, std::make_shared<PingMsg>(1));
  sim_.run_until_idle();
  ASSERT_EQ(log_.size(), 1U);
  EXPECT_EQ(log_[0].at, TimePoint(100));
  EXPECT_EQ(log_[0].from, 0U);
  EXPECT_EQ(log_[0].to, 1U);
}

TEST_F(NetworkTest, NullPolicyMeansWorstCaseBound) {
  // With no policy every message arrives exactly at max(GST, t) + Delta.
  build(TimePoint(1000), Duration(50), nullptr);
  net_->send(0, 1, std::make_shared<PingMsg>(1));  // sent at t=0 < GST
  sim_.run_until_idle();
  ASSERT_EQ(log_.size(), 1U);
  EXPECT_EQ(log_[0].at, TimePoint(1050)) << "pre-GST send arrives at GST + Delta";
}

TEST_F(NetworkTest, PostGstClampToDelta) {
  // Policy proposes a huge delay; network must clamp to t + Delta.
  build(TimePoint::origin(), Duration(50),
        std::make_shared<FixedDelay>(Duration::seconds(100)));
  sim_.run_until(TimePoint(200));
  net_->send(2, 3, std::make_shared<PingMsg>(9));
  sim_.run_until_idle();
  ASSERT_EQ(log_.size(), 1U);
  EXPECT_EQ(log_[0].at, TimePoint(250)) << "partial synchrony: delivery by t + Delta";
}

TEST_F(NetworkTest, SelfSendImmediate) {
  build(TimePoint::origin(), Duration(50), std::make_shared<FixedDelay>(Duration(100)));
  sim_.run_until(TimePoint(10));
  net_->send(1, 1, std::make_shared<PingMsg>(2));
  sim_.run_until(TimePoint(10));
  ASSERT_EQ(log_.size(), 1U);
  EXPECT_EQ(log_[0].at, TimePoint(10)) << "self messages are received immediately";
}

TEST_F(NetworkTest, DisconnectDropsTraffic) {
  build(TimePoint::origin(), Duration(50), std::make_shared<FixedDelay>(Duration(5)));
  net_->disconnect(3);
  net_->send(0, 3, std::make_shared<PingMsg>(1));  // to disconnected
  net_->send(3, 0, std::make_shared<PingMsg>(2));  // from disconnected
  sim_.run_until_idle();
  EXPECT_TRUE(log_.empty());
}

TEST_F(NetworkTest, ObserverSeesEachCopyAfterTheDownFilterAndBeforeTheCut) {
  struct Counter : NetworkObserver {
    std::vector<std::pair<ProcessId, ProcessId>> sends;
    void on_send(TimePoint, ProcessId from, ProcessId to, const Message&) override {
      sends.emplace_back(from, to);
    }
  } counter;
  build(TimePoint::origin(), Duration(50), std::make_shared<FixedDelay>(Duration(5)));
  net_->set_observer(&counter);
  net_->set_down(3, true);
  net_->set_partition({{0, 1, 3}, {2}});
  net_->send(1, 0, std::make_shared<PingMsg>(1));  // delivered
  net_->send(1, 1, std::make_shared<PingMsg>(2));  // delivered; a self-copy is not traffic
  net_->send(1, 2, std::make_shared<PingMsg>(3));  // parked by the cut: still sent
  net_->send(1, 3, std::make_shared<PingMsg>(4));  // lost at the down receiver: still sent
  net_->send(3, 0, std::make_shared<PingMsg>(5));  // a down sender emits nothing
  sim_.run_until_idle();
  const std::vector<std::pair<ProcessId, ProcessId>> expected = {{1, 0}, {1, 2}, {1, 3}};
  EXPECT_EQ(counter.sends, expected);
  EXPECT_EQ(log_.size(), 2U);
  EXPECT_EQ(net_->parked_count(), 1U);
}

TEST_F(NetworkTest, PreGstChaosStillRespectsEnvelope) {
  const TimePoint gst(10'000);
  build(gst, Duration(100),
        std::make_shared<PreGstChaosDelay>(gst, Duration(1), Duration(10), Duration(1'000'000)));
  for (int i = 0; i < 50; ++i) {
    net_->send(0, 1, std::make_shared<PingMsg>(static_cast<std::uint32_t>(i)));
  }
  sim_.run_until_idle();
  ASSERT_EQ(log_.size(), 50U);
  for (const auto& d : log_) {
    EXPECT_LE(d.at, gst + Duration(100)) << "even chaotic pre-GST sends land by GST + Delta";
  }
}

TEST_F(NetworkTest, UniformDelayWithinRange) {
  build(TimePoint::origin(), Duration(1000),
        std::make_shared<UniformDelay>(Duration(10), Duration(20)));
  for (int i = 0; i < 100; ++i) net_->send(0, 1, std::make_shared<PingMsg>(1));
  sim_.run_until_idle();
  ASSERT_EQ(log_.size(), 100U);
  for (const auto& d : log_) {
    EXPECT_GE(d.at, TimePoint(10));
    EXPECT_LE(d.at, TimePoint(20));
  }
}

}  // namespace
}  // namespace lumiere::sim
