#include "consensus/quorum_cert.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "crypto/authenticator.h"

namespace lumiere::consensus {
namespace {

class QuorumCertTest : public ::testing::Test {
 protected:
  QuorumCert make_qc(View view, const crypto::Digest& block_hash, std::uint32_t votes) {
    crypto::QuorumAggregator agg(auth(), QuorumCert::statement(view, block_hash),
                                 params_.quorum());
    for (ProcessId id = 0; id < votes; ++id) {
      agg.add(crypto::threshold_share(auth_->signer_for(id),
                                      QuorumCert::statement(view, block_hash)));
    }
    return QuorumCert(view, block_hash, agg.aggregate());
  }

  [[nodiscard]] crypto::AuthView auth() const { return crypto::AuthView(auth_.get()); }

  ProtocolParams params_ = ProtocolParams::for_n(7, Duration::millis(10));
  std::unique_ptr<crypto::Authenticator> auth_ =
      crypto::make_authenticator(crypto::kDefaultScheme, 7, 42);
};

TEST_F(QuorumCertTest, ValidQcVerifies) {
  const crypto::Digest h = crypto::Sha256::hash("block");
  const QuorumCert qc = make_qc(3, h, params_.quorum());
  EXPECT_TRUE(qc.verify(auth(), params_));
  EXPECT_EQ(qc.view(), 3);
  EXPECT_FALSE(qc.is_genesis());
}

TEST_F(QuorumCertTest, StatementBindsViewAndBlock) {
  const crypto::Digest h1 = crypto::Sha256::hash("a");
  const crypto::Digest h2 = crypto::Sha256::hash("b");
  EXPECT_NE(QuorumCert::statement(1, h1), QuorumCert::statement(2, h1));
  EXPECT_NE(QuorumCert::statement(1, h1), QuorumCert::statement(1, h2));
}

TEST_F(QuorumCertTest, MismatchedStatementRejected) {
  const crypto::Digest h = crypto::Sha256::hash("block");
  QuorumCert qc = make_qc(3, h, params_.quorum());
  // Tamper: claim it certifies a different view.
  const QuorumCert tampered(4, h, qc.sig());
  EXPECT_FALSE(tampered.verify(auth(), params_));
}

TEST_F(QuorumCertTest, GenesisVerifiesTrivially) {
  const QuorumCert g = QuorumCert::genesis(crypto::Sha256::hash("genesis"));
  EXPECT_TRUE(g.is_genesis());
  EXPECT_TRUE(g.verify(auth(), params_));
}

TEST_F(QuorumCertTest, SerializeRoundTrip) {
  const crypto::Digest h = crypto::Sha256::hash("block");
  const QuorumCert qc = make_qc(5, h, params_.quorum());
  ser::Writer w;
  qc.serialize(w);
  ser::Reader r(std::span<const std::uint8_t>(w.data().data(), w.size()));
  const auto out = QuorumCert::deserialize(r);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, qc);
  EXPECT_TRUE(out->verify(auth(), params_));
}

TEST_F(QuorumCertTest, DiamondTwoQuorumRequired) {
  // (diamond-2): a QC must carry 2f+1 distinct signers; fewer fails.
  const crypto::Digest h = crypto::Sha256::hash("block");
  crypto::QuorumAggregator agg(auth(), QuorumCert::statement(1, h), params_.small_quorum());
  for (ProcessId id = 0; id < params_.small_quorum(); ++id) {
    agg.add(crypto::threshold_share(auth_->signer_for(id), QuorumCert::statement(1, h)));
  }
  const QuorumCert thin(1, h, agg.aggregate());
  EXPECT_FALSE(thin.verify(auth(), params_)) << "f+1 signatures are not a quorum";
}

TEST_F(QuorumCertTest, StatementCacheMatchesDirectComputation) {
  StatementCache cache;
  const crypto::Digest h1 = crypto::Sha256::hash("a");
  const crypto::Digest h2 = crypto::Sha256::hash("b");
  // Repeats (the n-votes-for-one-block shape), alternating views (the
  // leader-aggregates-v-while-voting-v+1 shape), and a same-slot
  // collision (views 1 and 9 map to one direct-mapped entry).
  for (const View v : {1, 2, 1, 2, 9, 1}) {
    for (const crypto::Digest& h : {h1, h2}) {
      EXPECT_EQ(cache.get(v, h), QuorumCert::statement(v, h)) << "view " << v;
    }
  }
}

TEST_F(QuorumCertTest, VerifyCacheAcceptsOnlyTheExactVerifiedBytes) {
  const crypto::Digest h = crypto::Sha256::hash("block");
  const QuorumCert qc = make_qc(3, h, params_.quorum());
  QcVerifyCache cache;
  EXPECT_TRUE(qc.verify(auth(), params_, &cache));
  EXPECT_TRUE(cache.known_good(cache.fingerprint(qc)));
  EXPECT_TRUE(qc.verify(auth(), params_, &cache)) << "memo hit must still accept";

  // A *different* QC for the same (view, block) — here a thin one with
  // fewer signers — must not ride the memo: its fingerprint differs.
  crypto::QuorumAggregator agg(auth(), QuorumCert::statement(3, h), params_.small_quorum());
  for (ProcessId id = 0; id < params_.small_quorum(); ++id) {
    agg.add(crypto::threshold_share(auth_->signer_for(id), QuorumCert::statement(3, h)));
  }
  const QuorumCert thin(3, h, agg.aggregate());
  EXPECT_FALSE(thin.verify(auth(), params_, &cache));
  EXPECT_FALSE(cache.known_good(cache.fingerprint(thin)));
}

TEST(FingerprintMemoTest, RemembersWithinABoundedTable) {
  FingerprintMemo memo(4096);
  EXPECT_EQ(memo.slots(), FingerprintMemo::kInitialSlots);
  const crypto::Digest key = crypto::Sha256::hash("cert");
  EXPECT_FALSE(memo.known_good(key));
  memo.remember(key);
  EXPECT_TRUE(memo.known_good(key));
  memo.remember(key);  // a repeat takes no second way
  EXPECT_FALSE(memo.known_good(crypto::Sha256::hash("other")));

  // The table doubles instead of evicting until it reaches its bound:
  // below it, every key remembered so far is still known.
  const auto nth = [](int i) { return crypto::Sha256::hash("k" + std::to_string(i)); };
  int remembered = 0;
  std::size_t growths = 0;
  for (std::size_t slots = memo.slots(); slots < memo.max_slots(); slots = memo.slots()) {
    memo.remember(nth(remembered++));
    if (memo.slots() == slots) continue;
    ++growths;
    if (memo.slots() == memo.max_slots()) break;  // at the bound a full set evicts
    ASSERT_TRUE(memo.known_good(key));
    for (int i = 0; i < remembered; ++i) ASSERT_TRUE(memo.known_good(nth(i))) << i;
  }
  EXPECT_GE(growths, 2U);

  // However many keys go in then, at most max_slots are known, the
  // newest are, and the first has been evicted.
  constexpr int kKeys = 20'000;
  for (int i = remembered; i < kKeys; ++i) memo.remember(nth(i));
  EXPECT_EQ(memo.slots(), 4096U);
  std::size_t known = 0;
  for (int i = 0; i < kKeys; ++i) known += memo.known_good(nth(i)) ? 1 : 0;
  EXPECT_LE(known, memo.max_slots());
  EXPECT_GT(known, memo.max_slots() / 2);
  EXPECT_TRUE(memo.known_good(nth(kKeys - 1)));
  EXPECT_FALSE(memo.known_good(key));
}

TEST(FingerprintMemoTest, SizesRoundUpToWholeSets) {
  EXPECT_EQ(FingerprintMemo(1).max_slots(), FingerprintMemo::kWays);
  EXPECT_EQ(FingerprintMemo(1).slots(), FingerprintMemo::kWays);
  EXPECT_EQ(FingerprintMemo(100).max_slots(), 128U);
  EXPECT_EQ(FingerprintMemo(4096).max_slots(), 4096U);
  // The QC memo is a fixed table: it starts at its bound.
  EXPECT_EQ(QcVerifyCache().slots(), QcVerifyCache::kSlots);
  EXPECT_EQ(QcVerifyCache().max_slots(), QcVerifyCache::kSlots);
}

TEST_F(QuorumCertTest, EvictedQcStillVerifiesInFull) {
  crypto::AuthOpCounters ops;
  const crypto::AuthView counted(auth_.get(), nullptr, &ops);
  const QuorumCert qc = make_qc(3, crypto::Sha256::hash("block"), params_.quorum());
  QcVerifyCache cache;
  ASSERT_TRUE(qc.verify(counted, params_, &cache));
  ASSERT_TRUE(qc.verify(counted, params_, &cache));
  EXPECT_EQ(ops.snapshot().aggregate_verifies, 1U) << "the repeat is a memo hit";

  // Enough newer QCs to cycle every set of the table.
  for (View v = 4; v < 4 + 64 * static_cast<View>(QcVerifyCache::kSlots); ++v) {
    cache.remember(crypto::Sha256::hash("qc " + std::to_string(v)));
  }
  ASSERT_FALSE(cache.known_good(cache.fingerprint(qc)));
  EXPECT_TRUE(qc.verify(counted, params_, &cache));
  EXPECT_EQ(ops.snapshot().aggregate_verifies, 2U) << "an evicted QC is checked in full";
  EXPECT_TRUE(cache.known_good(cache.fingerprint(qc)));
}

}  // namespace
}  // namespace lumiere::consensus
