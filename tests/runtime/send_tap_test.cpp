// The transport's send tap is the one place a sent copy is observed: the
// MetricsCollector and the tracer's per-node meters read the same
// charges, so the honest meters add up to the honest count whatever the
// network did with the copies, and a Byzantine node's own injected
// traffic reaches its meter too.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "adversary/behaviors.h"
#include "consensus/messages.h"
#include "runtime/cluster.h"

namespace lumiere::runtime {
namespace {

ScenarioBuilder seven_nodes(bool crash_node_2) {
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(7, Duration::millis(10)))
      .pacemaker("lumiere")
      .core("chained-hotstuff")
      .seed(3)
      .delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)));
  if (crash_node_2) {
    // While down, node 2 keeps running its protocol; the network drops
    // what it sends, so none of it is traffic.
    builder.crash(2, TimePoint(Duration::seconds(1).ticks()));
    builder.recover(2, TimePoint(Duration::seconds(3).ticks()));
  }
  return builder;
}

TEST(SendTapTest, HonestMetersSumToTheHonestCount) {
  for (const bool crash : {false, true}) {
    Cluster cluster(seven_nodes(crash));
    cluster.run_for(Duration::seconds(5));
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
    for (const ProcessId id : cluster.honest_ids()) {
      msgs += cluster.sync_tracer()->msgs_sent(id);
      bytes += cluster.sync_tracer()->bytes_sent(id);
    }
    ASSERT_GT(cluster.metrics().total_honest_msgs(), 10'000U) << "crash=" << crash;
    EXPECT_EQ(msgs, cluster.metrics().total_honest_msgs()) << "crash=" << crash;
    EXPECT_EQ(bytes, cluster.metrics().total_honest_bytes()) << "crash=" << crash;
  }
}

/// Sends nothing through the node's filtered outbound path; whenever it
/// leads a view it injects the equivocator's two conflicting proposals
/// with raw sends, counting the copies that go to other processes.
class MuteEquivocator final : public adversary::Behavior {
 public:
  explicit MuteEquivocator(std::shared_ptr<std::uint64_t> copies) : copies_(std::move(copies)) {}

  bool allow_send(TimePoint, ProcessId, const Message&) override { return false; }
  void on_view_entered(TimePoint now, View v, const adversary::Toolkit& toolkit) override {
    adversary::Toolkit counting = toolkit;
    counting.raw_send = [this, &toolkit](ProcessId to, MessagePtr msg) {
      if (to != toolkit.self) ++*copies_;
      toolkit.raw_send(to, std::move(msg));
    };
    equivocator_.on_view_entered(now, v, counting);
  }
  const char* name() const override { return "mute-equivocator"; }

 private:
  std::shared_ptr<std::uint64_t> copies_;
  adversary::EquivocatorBehavior equivocator_;
};

TEST(SendTapTest, ByzantineRawSendsReachTheSendersMeter) {
  auto copies = std::make_shared<std::uint64_t>(0);
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(4, Duration::millis(10)))
      .pacemaker("lumiere")
      .core("chained-hotstuff")
      .seed(11)
      .delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)))
      .behaviors(adversary::byzantine_set(
          {0}, [copies](ProcessId) { return std::make_unique<MuteEquivocator>(copies); }));
  Cluster cluster(builder);
  cluster.run_for(Duration::seconds(2));
  ASSERT_GT(*copies, 0U) << "node 0 never led a view";
  EXPECT_EQ(cluster.node_status(0).msgs_sent, *copies)
      << "the equivocator's meter must hold exactly its injected copies";
  EXPECT_GT(cluster.node_status(0).msgs_sent, 0U);
}

/// Lets everything through and records, per destination, the proposal
/// copies the node's outbound path offered it.
class ProposalDestinations final : public adversary::Behavior {
 public:
  explicit ProposalDestinations(std::shared_ptr<std::map<ProcessId, int>> seen)
      : seen_(std::move(seen)) {}

  bool allow_send(TimePoint, ProcessId to, const Message& msg) override {
    if (msg.type_id() == consensus::kProposal) ++(*seen_)[to];
    return true;
  }
  const char* name() const override { return "proposal-destinations"; }

 private:
  std::shared_ptr<std::map<ProcessId, int>> seen_;
};

TEST(SendTapTest, NodeBroadcastIncludesItself) {
  // The paper's broadcast convention (Section 4): a broadcast reaches
  // every processor, the sender included. Node::outbound_broadcast sends
  // one copy per destination so a behavior can filter each one.
  auto seen = std::make_shared<std::map<ProcessId, int>>();
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(4, Duration::millis(10)))
      .pacemaker("lumiere")
      .core("chained-hotstuff")
      .seed(12)
      .delay(std::make_shared<sim::FixedDelay>(Duration::millis(1)))
      .behaviors(adversary::byzantine_set(
          {1}, [seen](ProcessId) { return std::make_unique<ProposalDestinations>(seen); }));
  Cluster cluster(builder);
  cluster.run_for(Duration::seconds(1));
  ASSERT_EQ(seen->size(), 4U) << "every processor, node 1 itself included";
  ASSERT_GT(seen->at(1), 0) << "node 1 never proposed";
  for (const auto& [to, count] : *seen) EXPECT_EQ(count, seen->at(1)) << "destination " << to;
}

}  // namespace
}  // namespace lumiere::runtime
