// The full protocol stack over real sockets in real time: the same Node
// objects the simulator drives, reaching consensus over localhost TCP
// with wall-clock timers. Complements tcp_transport_test (bytes move)
// with the end-to-end claim (consensus happens).
#include "transport/realtime.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "consensus/messages.h"
#include "crypto/authenticator.h"
#include "pacemaker/messages.h"
#include "runtime/node.h"

namespace lumiere::transport {
namespace {

MessageCodec full_codec() {
  MessageCodec codec;
  consensus::register_consensus_messages(codec);
  pacemaker::register_pacemaker_messages(codec);
  return codec;
}

struct NodeOutcome {
  View final_view = -1;
  std::size_t commits = 0;
  std::vector<crypto::Digest> chain;
};

/// Runs n full nodes over TCP for `wall` milliseconds; returns outcomes.
std::vector<NodeOutcome> run_cluster(const std::string& pacemaker, const std::string& core,
                                     std::uint16_t base_port, int wall_ms) {
  constexpr std::uint32_t kN = 4;
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, kN, 7);
  const ProtocolParams params = ProtocolParams::for_n(kN, Duration::millis(10), /*x=*/4);
  std::vector<NodeOutcome> outcomes(kN);

  // Bind every listener before any node starts the protocol: one-shot
  // bootstrap broadcasts (Lumiere's epoch-view message) must not race a
  // peer's not-yet-bound socket. Real deployments bind before announcing
  // themselves too; runtime::Cluster's TCP mode does the same.
  std::vector<std::unique_ptr<sim::Simulator>> sims;
  std::vector<std::unique_ptr<TcpTransportAdapter>> transports;
  std::vector<std::unique_ptr<runtime::Node>> nodes;
  for (ProcessId id = 0; id < kN; ++id) {
    sims.push_back(std::make_unique<sim::Simulator>());
    transports.push_back(std::make_unique<TcpTransportAdapter>(id, kN, base_port, full_codec()));
    transports.back()->set_shaping(sims.back().get(), id);  // self-deliveries run on the sim
    runtime::NodeConfig config;
    config.protocol.pacemaker = pacemaker;
    config.protocol.core = core;
    config.protocol.shared_seed = 7;
    nodes.push_back(std::make_unique<runtime::Node>(params, id, sims[id].get(),
                                                    transports[id].get(), auth.get(), config,
                                                    runtime::NodeObservers{},
                                                    std::make_unique<adversary::HonestBehavior>()));
  }

  std::vector<std::thread> threads;
  threads.reserve(kN);
  for (ProcessId id = 0; id < kN; ++id) {
    threads.emplace_back([&, id] {
      nodes[id]->start();
      RealtimeDriver driver(sims[id].get(), &transports[id]->endpoint());
      driver.run_for(std::chrono::milliseconds(wall_ms));
      outcomes[id].final_view = nodes[id]->current_view();
      outcomes[id].commits = nodes[id]->ledger().size();
      for (const auto& entry : nodes[id]->ledger().entries()) {
        outcomes[id].chain.push_back(entry.hash());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return outcomes;
}

TEST(RealtimeTest, LumiereHotStuffReachesConsensusOverTcp) {
  const auto outcomes = run_cluster("lumiere", "chained-hotstuff", 25480, 800);
  std::size_t shortest = SIZE_MAX;
  for (const auto& outcome : outcomes) {
    // Localhost latency is far below Delta = 10ms; the thresholds are
    // deliberately loose — wall-clock tests share the machine with the
    // rest of the suite (and sometimes a bench run), and proving
    // consensus-over-TCP needs only a handful of views.
    EXPECT_GE(outcome.final_view, 5);
    EXPECT_GE(outcome.commits, 3U);
    shortest = std::min(shortest, outcome.commits);
  }
  ASSERT_GT(shortest, 0U);
  for (std::size_t i = 0; i < shortest; ++i) {
    for (std::size_t id = 1; id < outcomes.size(); ++id) {
      ASSERT_EQ(outcomes[id].chain[i], outcomes[0].chain[i])
          << "SMR logs diverged over TCP at index " << i;
    }
  }
}

TEST(RealtimeTest, FeverHotStuff2AlsoRunsOverTcp) {
  // A different pacemaker/core pairing through the identical seam —
  // nothing in the realtime path is Lumiere-specific.
  const auto outcomes = run_cluster("fever", "hotstuff-2", 25500, 800);
  for (const auto& outcome : outcomes) {
    EXPECT_GE(outcome.final_view, 5);
    EXPECT_GE(outcome.commits, 3U);
  }
}

TEST(RealtimeTest, DriverKeepsSimulatorInLockstepWithWall) {
  // No sockets needed: the driver must advance the simulator by (roughly)
  // the wall time it was given, so LocalClock readings are real time.
  sim::Simulator sim;
  TcpTransportAdapter transport(0, 1, 25520, full_codec());
  RealtimeDriver driver(&sim, &transport.endpoint());
  driver.run_for(std::chrono::milliseconds(120));
  EXPECT_GE(sim.now().ticks(), Duration::millis(100).ticks());
  // Generous upper bound: a loaded machine can stall one loop iteration.
  EXPECT_LE(sim.now().ticks(), Duration::millis(1000).ticks());
}

TEST(RealtimeTest, ScheduledEventsFireAtWallTime) {
  sim::Simulator sim;
  TcpTransportAdapter transport(0, 1, 25540, full_codec());
  std::vector<std::int64_t> fire_wall_ms;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 1; i <= 3; ++i) {
    sim.schedule_after(Duration::millis(i * 30), [&, i] {
      fire_wall_ms.push_back(std::chrono::duration_cast<std::chrono::milliseconds>(
                                 std::chrono::steady_clock::now() - start)
                                 .count());
    });
  }
  RealtimeDriver driver(&sim, &transport.endpoint());
  driver.run_for(std::chrono::milliseconds(150));
  ASSERT_EQ(fire_wall_ms.size(), 3U);
  for (int i = 0; i < 3; ++i) {
    EXPECT_GE(fire_wall_ms[i], (i + 1) * 30 - 2) << "event " << i << " fired early";
    EXPECT_LE(fire_wall_ms[i], (i + 1) * 30 + 100) << "event " << i << " fired far too late";
  }
}

TEST(RealtimeTest, SelfCopyArrivesAtTheCurrentInstantNotInline) {
  // As on the sim network: a node's copy to itself is received at the
  // instant it was sent, but only after the sending handler returns, so
  // a broadcast's peer copies all leave before the node acts on its own.
  // The copy is the sent object itself: no encode, no frame, no decode.
  sim::Simulator sim;
  TcpTransportAdapter transport(0, 1, 25550, full_codec());
  transport.set_shaping(&sim, 1);
  std::vector<MessagePtr> received;
  transport.register_endpoint(0, [&received](ProcessId, const MessagePtr& msg) {
    received.push_back(msg);
  });
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, 1, 1);
  const MessagePtr sent = std::make_shared<pacemaker::ViewMsg>(
      9, crypto::threshold_share(auth->signer_for(0), pacemaker::view_msg_statement(9)));
  sim.schedule_after(Duration::millis(5), [&] {
    transport.send(0, 0, sent);
    EXPECT_TRUE(received.empty()) << "self-delivery re-entered the sending handler";
  });
  sim.run_until(TimePoint(Duration::millis(5).ticks()));
  ASSERT_EQ(received.size(), 1U);
  EXPECT_EQ(received[0], sent) << "the self-copy went through the codec";
  EXPECT_EQ(static_cast<const pacemaker::ViewMsg&>(*received[0]).view(), 9);
  EXPECT_EQ(transport.endpoint().frames_sent(), 0U) << "the self-copy was framed";
  EXPECT_EQ(sim.now(), TimePoint(Duration::millis(5).ticks())) << "self-copy was delayed";
}

}  // namespace
}  // namespace lumiere::transport
