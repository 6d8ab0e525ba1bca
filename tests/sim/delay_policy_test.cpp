#include "sim/delay_policy.h"

#include <gtest/gtest.h>

#include <memory>

#include "crypto/authenticator.h"
#include "pacemaker/messages.h"

namespace lumiere::sim {
namespace {

class DelayPolicyTest : public ::testing::Test {
 protected:
  MessagePtr sample_msg() {
    return std::make_shared<pacemaker::ViewMsg>(
        1, crypto::threshold_share(auth_->signer_for(0), pacemaker::view_msg_statement(1)));
  }

  std::unique_ptr<crypto::Authenticator> auth_ =
      crypto::make_authenticator(crypto::kDefaultScheme, 4, 1);
  Rng rng_{99};
};

TEST_F(DelayPolicyTest, FixedDelayConstant) {
  FixedDelay policy(Duration::millis(3));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(policy.propose_delay(0, 1, *sample_msg(), TimePoint(i), rng_),
              Duration::millis(3));
  }
}

TEST_F(DelayPolicyTest, UniformDelayStaysInRange) {
  UniformDelay policy(Duration::millis(1), Duration::millis(5));
  for (int i = 0; i < 500; ++i) {
    const Duration d = policy.propose_delay(0, 1, *sample_msg(), TimePoint(0), rng_);
    EXPECT_GE(d, Duration::millis(1));
    EXPECT_LE(d, Duration::millis(5));
  }
}

TEST_F(DelayPolicyTest, PreGstChaosSwitchesAtGst) {
  const TimePoint gst(1000);
  PreGstChaosDelay policy(gst, Duration::micros(10), Duration::micros(20),
                          Duration::seconds(10));
  bool saw_chaotic = false;
  for (int i = 0; i < 200; ++i) {
    const Duration pre = policy.propose_delay(0, 1, *sample_msg(), TimePoint(0), rng_);
    if (pre > Duration::micros(20)) saw_chaotic = true;
  }
  EXPECT_TRUE(saw_chaotic) << "pre-GST draws should exceed the post-GST range";
  for (int i = 0; i < 200; ++i) {
    const Duration post = policy.propose_delay(0, 1, *sample_msg(), gst, rng_);
    EXPECT_GE(post, Duration::micros(10));
    EXPECT_LE(post, Duration::micros(20));
  }
}

}  // namespace
}  // namespace lumiere::sim
