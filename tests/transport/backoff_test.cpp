// Reconnect backoff: the pure policy (transport/backoff.h) and the
// endpoint behavior it gates — a peer that dies and later rebinds its
// port is rediscovered and traffic resumes (the soak cluster's
// crash-recovery transport precondition).
#include "transport/backoff.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "crypto/authenticator.h"
#include "pacemaker/messages.h"
#include "transport/tcp_transport.h"

namespace lumiere::transport {
namespace {

TEST(ReconnectBackoffTest, DoublesUntilCapWithBoundedJitter) {
  const BackoffPolicy policy{Duration::millis(2), Duration::millis(200)};
  ReconnectBackoff backoff(policy, /*jitter_seed=*/7);
  for (int k = 1; k <= 12; ++k) {
    const std::int64_t pre_jitter =
        std::min<std::int64_t>(policy.base.ticks() << (k - 1), policy.cap.ticks());
    const Duration delay = backoff.on_failure();
    EXPECT_GE(delay.ticks(), pre_jitter) << "failure " << k;
    EXPECT_LT(delay.ticks(), pre_jitter + pre_jitter / 4 + 1) << "failure " << k;
  }
  EXPECT_EQ(backoff.failures(), 12U);
}

TEST(ReconnectBackoffTest, CapHoldsForever) {
  ReconnectBackoff backoff({Duration::millis(2), Duration::millis(200)}, 11);
  for (int k = 0; k < 80; ++k) {
    const Duration delay = backoff.on_failure();
    EXPECT_LE(delay.ticks(), Duration::millis(250).ticks());  // cap + cap/4
  }
}

TEST(ReconnectBackoffTest, SuccessRestartsTheSchedule) {
  ReconnectBackoff backoff({Duration::millis(2), Duration::millis(200)}, 3);
  for (int k = 0; k < 6; ++k) (void)backoff.on_failure();
  backoff.on_success();
  EXPECT_EQ(backoff.failures(), 0U);
  const Duration first = backoff.on_failure();
  EXPECT_GE(first.ticks(), Duration::millis(2).ticks());
  EXPECT_LT(first.ticks(), Duration::millis(2).ticks() + Duration::millis(2).ticks() / 4 + 1);
}

TEST(ReconnectBackoffTest, IdenticalSeedsDrawIdenticalDelays) {
  ReconnectBackoff a({Duration::millis(2), Duration::millis(200)}, 42);
  ReconnectBackoff b({Duration::millis(2), Duration::millis(200)}, 42);
  for (int k = 0; k < 20; ++k) {
    EXPECT_EQ(a.on_failure().ticks(), b.on_failure().ticks()) << "draw " << k;
  }
}

TEST(ReconnectBackoffTest, ZeroBaseDisablesGating) {
  ReconnectBackoff backoff({Duration::zero(), Duration::millis(200)}, 1);
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(backoff.on_failure().ticks(), 0);
  }
}

// ---------------------------------------------------------------- endpoint

MessageCodec pacemaker_codec() {
  MessageCodec codec;
  pacemaker::register_pacemaker_messages(codec);
  return codec;
}

MessagePtr view_msg(const crypto::Authenticator& auth, ProcessId from, View v) {
  return std::make_shared<pacemaker::ViewMsg>(
      v, crypto::threshold_share(auth.signer_for(from), pacemaker::view_msg_statement(v)));
}

// A peer endpoint dies (port released), the survivor keeps sending —
// gated by backoff, not hammering — and once the peer rebinds, frames
// flow again. This is exactly what a soak replica sees across a peer's
// kill -9 + restart.
TEST(ReconnectBackoffTest, EndpointRecoversAfterPeerRestart) {
  constexpr std::uint16_t kBase = 23950;
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, 2, 1);
  std::vector<View> received;

  TcpEndpoint survivor(0, 2, kBase, pacemaker_codec(), [](ProcessId, const MessagePtr&) {});
  survivor.set_reconnect_backoff({Duration::millis(1), Duration::millis(50)}, 99);

  auto make_peer = [&] {
    return std::make_unique<TcpEndpoint>(
        1, 2, kBase, pacemaker_codec(), [&received](ProcessId, const MessagePtr& msg) {
          received.push_back(static_cast<const pacemaker::ViewMsg&>(*msg).view());
        });
  };

  // First incarnation: delivery works.
  auto peer = make_peer();
  survivor.send(1, view_msg(*auth, 0, 1));
  for (int i = 0; i < 40 && received.empty(); ++i) {
    survivor.poll_once(5);
    peer->poll_once(5);
  }
  ASSERT_EQ(received.size(), 1U);

  // Peer dies. Sends toward it fail; the backoff gate records failures
  // instead of connect()-spamming on every single send.
  peer.reset();
  for (int i = 0; i < 30; ++i) {
    survivor.send(1, view_msg(*auth, 0, 100 + i));
    survivor.poll_once(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(survivor.connect_failures(1), 0U);
  EXPECT_LT(survivor.connect_failures(1), 30U) << "every send retried connect(): no gating";

  // Peer rebinds the same port; within the capped backoff window the
  // survivor reconnects and delivery resumes.
  peer = make_peer();
  received.clear();
  for (int i = 0; i < 200 && received.empty(); ++i) {
    survivor.send(1, view_msg(*auth, 0, 1000 + i));
    survivor.poll_once(2);
    peer->poll_once(2);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_FALSE(received.empty()) << "no frame arrived after the peer rebound its port";
  EXPECT_EQ(survivor.connect_failures(1), 0U) << "success must reset the failure count";
}

}  // namespace
}  // namespace lumiere::transport
