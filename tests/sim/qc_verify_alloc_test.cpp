// Checking a quorum certificate allocates nothing: every replica
// recomputes all 2f+1 MACs of every QC it has not verified itself, so the
// check sits on the simulator's hottest path at n = 31.
#include <gtest/gtest.h>

#include <memory>

#include "alloc_counter.h"
#include "common/params.h"
#include "consensus/quorum_cert.h"
#include "crypto/authenticator.h"

namespace lumiere::sim {
namespace {

using consensus::QuorumCert;

TEST(QcVerifyAllocTest, UncachedVerifyAllocatesNothingAtN31) {
  constexpr std::uint32_t kN = 31;
  const ProtocolParams params = ProtocolParams::for_n(kN, Duration::millis(10));
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, kN, 5);
  const crypto::AuthView view(auth.get());
  const crypto::Digest block = crypto::Sha256::hash("block");
  const crypto::Digest statement = QuorumCert::statement(7, block);
  crypto::QuorumAggregator agg(view, statement, params.quorum());
  for (ProcessId id = 0; !agg.complete(); ++id) {
    ASSERT_TRUE(agg.add(crypto::threshold_share(auth->signer_for(id), statement)));
  }
  const QuorumCert qc(7, block, agg.aggregate());
  ASSERT_TRUE(qc.verify(view, params));  // warm any one-time statics

  const std::size_t calls = alloc::count();
  const std::size_t bytes = alloc::bytes();
  bool all_ok = true;
  for (int i = 0; i < 10; ++i) all_ok = qc.verify(view, params) && all_ok;
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(alloc::bytes() - bytes, 0U);
  EXPECT_EQ(alloc::count() - calls, 0U);
}

}  // namespace
}  // namespace lumiere::sim
