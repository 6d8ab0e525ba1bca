// Authenticator suite contract tests, parameterized over every registered
// scheme: whatever make_authenticator() can build must satisfy the same
// sign/verify/aggregate laws (the protocol layer never knows which scheme
// it runs on).
#include "crypto/authenticator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/hmac_scheme.h"

namespace lumiere::crypto {
namespace {

class AuthenticatorTest : public ::testing::TestWithParam<std::string> {
 protected:
  static constexpr std::uint32_t kN = 7;  // f = 2
  std::unique_ptr<Authenticator> auth_ = make_authenticator(GetParam(), kN, 1234);
  Digest msg_ = Sha256::hash("statement");

  [[nodiscard]] AuthView view() const { return AuthView(auth_.get()); }
};

TEST_P(AuthenticatorTest, SignVerifyRoundTrip) {
  const Signer signer = auth_->signer_for(2);
  const Signature sig = signer.sign(msg_);
  EXPECT_EQ(sig.signer, 2U);
  EXPECT_EQ(sig.sig.size(), auth_->wire_spec().sig_bytes);
  EXPECT_TRUE(auth_->verify(msg_, sig));
}

TEST_P(AuthenticatorTest, RejectsWrongMessage) {
  const Signature sig = auth_->signer_for(1).sign(Sha256::hash("a"));
  EXPECT_FALSE(auth_->verify(Sha256::hash("b"), sig));
}

TEST_P(AuthenticatorTest, RejectsForgedSigner) {
  Signature sig = auth_->signer_for(0).sign(msg_);
  sig.signer = 1;  // claim someone else signed it
  EXPECT_FALSE(auth_->verify(msg_, sig));
}

TEST_P(AuthenticatorTest, RejectsOutOfRangeSigner) {
  Signature sig = auth_->signer_for(0).sign(msg_);
  sig.signer = kN + 3;
  EXPECT_FALSE(auth_->verify(msg_, sig));
}

TEST_P(AuthenticatorTest, KeysDifferAcrossProcessesAndSeeds) {
  const auto other = make_authenticator(GetParam(), kN, 77);
  // Same process id, different seed -> different signature bytes.
  EXPECT_NE(auth_->signer_for(0).sign(msg_).sig, other->signer_for(0).sign(msg_).sig);
  // Different processes, same seed -> different signature bytes.
  EXPECT_NE(auth_->signer_for(0).sign(msg_).sig, auth_->signer_for(1).sign(msg_).sig);
}

TEST_P(AuthenticatorTest, DeterministicForSeed) {
  const auto twin = make_authenticator(GetParam(), kN, 1234);
  EXPECT_EQ(auth_->signer_for(3).sign(msg_).sig, twin->signer_for(3).sign(msg_).sig);
}

TEST_P(AuthenticatorTest, CrossInstanceSignaturesDoNotVerify) {
  const auto other = make_authenticator(GetParam(), kN, 77);
  const Signature sig = auth_->signer_for(0).sign(msg_);
  EXPECT_FALSE(other->verify(msg_, sig));
}

TEST_P(AuthenticatorTest, AggregatesAtThreshold) {
  QuorumAggregator agg(view(), msg_, 5);
  for (ProcessId id = 0; id < 5; ++id) {
    EXPECT_FALSE(agg.complete());
    EXPECT_TRUE(agg.add(threshold_share(auth_->signer_for(id), msg_)));
  }
  EXPECT_TRUE(agg.complete());
  const ThresholdSig sig = agg.aggregate();
  EXPECT_EQ(sig.signer_count(), 5U);
  EXPECT_TRUE(view().verify_aggregate(msg_, sig, 5));
}

TEST_P(AuthenticatorTest, AggregateBindsTheStatementTheVerifierSupplies) {
  // The aggregate carries no statement: the verifier derives it. Checked
  // against any other statement, the same signers and tag must fail.
  QuorumAggregator agg(view(), msg_, 3);
  for (ProcessId id = 0; id < 3; ++id) agg.add(threshold_share(auth_->signer_for(id), msg_));
  const ThresholdSig sig = agg.aggregate();
  EXPECT_TRUE(view().verify_aggregate(msg_, sig, 3));
  EXPECT_FALSE(view().verify_aggregate(Sha256::hash("other statement"), sig, 3));
  EXPECT_FALSE(auth_->check_aggregate(Sha256::hash("other statement"), sig));
  EXPECT_NE(aggregate_fingerprint(msg_, sig),
            aggregate_fingerprint(Sha256::hash("other statement"), sig));
}

TEST_P(AuthenticatorTest, AggregatorRejectsDuplicates) {
  QuorumAggregator agg(view(), msg_, 3);
  const PartialSig share = threshold_share(auth_->signer_for(0), msg_);
  EXPECT_TRUE(agg.add(share));
  EXPECT_FALSE(agg.add(share));
  EXPECT_EQ(agg.count(), 1U);
}

TEST_P(AuthenticatorTest, AggregatorRejectsInvalidShare) {
  QuorumAggregator agg(view(), msg_, 3);
  PartialSig bogus = threshold_share(auth_->signer_for(0), msg_);
  bogus.signer = 1;  // share not actually signed by 1
  EXPECT_FALSE(agg.add(bogus));
  PartialSig out_of_range = threshold_share(auth_->signer_for(0), msg_);
  out_of_range.signer = 50;
  EXPECT_FALSE(agg.add(out_of_range));
}

TEST_P(AuthenticatorTest, AggregatorRejectsShareForOtherMessage) {
  QuorumAggregator agg(view(), msg_, 3);
  const PartialSig other = threshold_share(auth_->signer_for(0), Sha256::hash("other"));
  EXPECT_FALSE(agg.add(other));
}

TEST_P(AuthenticatorTest, VerifyRejectsBelowThreshold) {
  QuorumAggregator agg(view(), msg_, 3);
  for (ProcessId id = 0; id < 3; ++id) agg.add(threshold_share(auth_->signer_for(id), msg_));
  const ThresholdSig sig = agg.aggregate();
  EXPECT_TRUE(view().verify_aggregate(msg_, sig, 3));
  EXPECT_FALSE(view().verify_aggregate(msg_, sig, 4)) << "3 signers cannot satisfy a 4-threshold";
}

TEST_P(AuthenticatorTest, VerifyRejectsTamperedTag) {
  QuorumAggregator agg(view(), msg_, 3);
  for (ProcessId id = 0; id < 3; ++id) agg.add(threshold_share(auth_->signer_for(id), msg_));
  ThresholdSig sig = agg.aggregate();
  sig.tag = SigBytes::zeros(sig.tag.size());
  EXPECT_FALSE(view().verify_aggregate(msg_, sig, 3));
}

TEST_P(AuthenticatorTest, VerifyRejectsTamperedSignerSet) {
  QuorumAggregator agg(view(), msg_, 3);
  for (ProcessId id = 0; id < 3; ++id) agg.add(threshold_share(auth_->signer_for(id), msg_));
  ThresholdSig sig = agg.aggregate();
  sig.signers.add(5);  // claim an extra signer
  EXPECT_FALSE(view().verify_aggregate(msg_, sig, 3));
}

TEST_P(AuthenticatorTest, SharesAreDomainSeparatedFromSignatures) {
  // A threshold share must not verify as a standalone signature over the
  // message (and vice versa): different statements.
  const PartialSig share = threshold_share(auth_->signer_for(0), msg_);
  EXPECT_FALSE(auth_->verify(msg_, Signature{share.signer, share.sig}));
}

TEST_P(AuthenticatorTest, WireSizesFollowTheSchemeSpec) {
  const SigWireSpec spec = auth_->wire_spec();
  const Signature sig = auth_->signer_for(0).sign(msg_);
  EXPECT_EQ(sig.wire_size(), spec.sig_bytes + 4U);
  QuorumAggregator agg(view(), msg_, 3);
  for (ProcessId id = 0; id < 3; ++id) agg.add(threshold_share(auth_->signer_for(id), msg_));
  const ThresholdSig ts = agg.aggregate();
  EXPECT_EQ(ts.tag.size(), spec.tag_bytes(3));
  EXPECT_EQ(ts.wire_size(), kKappaBytes + spec.tag_bytes(3));
}

TEST_P(AuthenticatorTest, MemoSkipsNothingSemantically) {
  // A memo pre-loaded by a (simulated) pipeline worker changes cost, not
  // outcomes: valid claims pass with or without it, and a claim absent
  // from the memo still verifies inline.
  VerifyMemo memo;
  const AuthView memoized(auth_.get(), &memo);
  const PartialSig share = threshold_share(auth_->signer_for(2), msg_);
  EXPECT_TRUE(memoized.verify_share(msg_, share));
  memo.remember(share_fingerprint(msg_, share));
  EXPECT_TRUE(memoized.verify_share(msg_, share));

  // Tampered share: its fingerprint is not in the memo, so the inline
  // check still rejects it.
  PartialSig bad = share;
  bad.signer = 3;
  EXPECT_FALSE(memoized.verify_share(msg_, bad));
}

TEST_P(AuthenticatorTest, MemoizedAggregateStillChecksThreshold) {
  VerifyMemo memo;
  const AuthView memoized(auth_.get(), &memo);
  QuorumAggregator agg(view(), msg_, 3);
  for (ProcessId id = 0; id < 3; ++id) agg.add(threshold_share(auth_->signer_for(id), msg_));
  const ThresholdSig sig = agg.aggregate();
  memo.remember(aggregate_fingerprint(msg_, sig));
  EXPECT_TRUE(memoized.verify_aggregate(msg_, sig, 3));
  // The threshold check is never memoized away.
  EXPECT_FALSE(memoized.verify_aggregate(msg_, sig, 4));
}

/// Property sweep: any f+1 / 2f+1 subset aggregates and verifies.
TEST_P(AuthenticatorTest, AnySubsetOfThresholdSizeWorks) {
  for (const std::uint32_t f : {1U, 2U, 3U}) {
    const std::uint32_t n = 3 * f + 1;
    const auto auth = make_authenticator(GetParam(), n, 77);
    const AuthView view(auth.get());
    const Digest msg = Sha256::hash("sweep");
    Rng rng(f * 31 + 7);
    for (int round = 0; round < 3; ++round) {
      const std::uint32_t m = (round % 2 == 0) ? f + 1 : 2 * f + 1;
      QuorumAggregator agg(view, msg, m);
      const auto perm = rng.permutation(n);
      for (std::uint32_t i = 0; i < m; ++i) {
        ASSERT_TRUE(agg.add(threshold_share(auth->signer_for(perm[i]), msg)));
      }
      ASSERT_TRUE(agg.complete());
      EXPECT_TRUE(view.verify_aggregate(msg, agg.aggregate(), m));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, AuthenticatorTest,
                         ::testing::ValuesIn(scheme_names()),
                         [](const auto& info) { return info.param; });

TEST(AuthenticatorRegistryTest, DefaultSchemeIsRegistered) {
  EXPECT_TRUE(has_scheme(kDefaultScheme));
  const auto names = scheme_names();
  EXPECT_GE(names.size(), 2U)
      << "expect the sim default plus at least one real-signature scheme";
}

TEST(AuthenticatorRegistryTest, UnknownSchemeThrowsListingKnownOnes) {
  try {
    (void)make_authenticator("no-such-scheme", 4, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-scheme"), std::string::npos);
    EXPECT_NE(what.find(kDefaultScheme), std::string::npos);
  }
}

TEST(VerifyMemoTest, BoundedAndClearsWhenFull) {
  VerifyMemo memo(/*max_entries=*/4);
  for (int i = 0; i < 4; ++i) memo.remember(Sha256::hash(std::to_string(i)));
  EXPECT_EQ(memo.size(), 4U);
  EXPECT_TRUE(memo.contains(Sha256::hash("0")));
  memo.remember(Sha256::hash("overflow"));  // full -> cleared, then inserted
  EXPECT_EQ(memo.size(), 1U);
  EXPECT_FALSE(memo.contains(Sha256::hash("0")));
  EXPECT_TRUE(memo.contains(Sha256::hash("overflow")));
}

// -- HMAC scheme: the aggregate tag bytes ---------------------------------

/// A 2f+1 aggregate at n = 31 under the default scheme, fixed seed.
class HmacAggregateTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kN = 31;
  static constexpr std::uint32_t kQuorum = 21;

  HmacAggregateTest() {
    QuorumAggregator agg(AuthView(&auth_), msg_, kQuorum);
    // Every third signer first, so the tag's signer order is the
    // aggregator's sorting and not arrival order.
    for (ProcessId k = 0; k < kN && !agg.complete(); ++k) {
      const ProcessId id = (3 * k) % kN;
      const PartialSig share = threshold_share(auth_.signer_for(id), msg_);
      EXPECT_TRUE(agg.add(share));
      shares_.push_back(share);
    }
    sig_ = agg.aggregate();
  }

  /// The tag construction, rebuilt from public shares:
  /// SHA-256("lumiere.agg" || message || per signer ascending: LE id || MAC).
  [[nodiscard]] SigBytes tag_from(std::vector<PartialSig> shares) const {
    std::sort(shares.begin(), shares.end(),
              [](const PartialSig& a, const PartialSig& b) { return a.signer < b.signer; });
    Sha256 h;
    h.update("lumiere.agg");
    h.update(msg_.as_span());
    for (const PartialSig& share : shares) {
      const std::uint8_t id[4] = {static_cast<std::uint8_t>(share.signer), 0, 0, 0};
      h.update(std::span<const std::uint8_t>(id, 4));
      h.update(share.sig.span());
    }
    return SigBytes(h.finish().as_span());
  }

  HmacAuthenticator auth_{kN, 20240601};
  Digest msg_ = Sha256::hash("pinned qc statement");
  std::vector<PartialSig> shares_;
  ThresholdSig sig_;
};

TEST_F(HmacAggregateTest, TagBytesArePinned) {
  // Every golden digest depends on these bytes; a change here is a
  // change of wire format, never an optimisation.
  ASSERT_EQ(sig_.signer_count(), kQuorum);
  std::array<std::uint8_t, Digest::kSize> tag{};
  ASSERT_EQ(sig_.tag.size(), tag.size());
  std::copy_n(sig_.tag.data(), tag.size(), tag.begin());
  EXPECT_EQ(Digest(tag).hex(), "943dccd5b485438d593a0bc9e93b51af8e00d059ad7a3217c10b639f4ffc29de");
  EXPECT_EQ(sig_.tag, tag_from(shares_));
  EXPECT_TRUE(auth_.check_aggregate(msg_, sig_));
}

TEST_F(HmacAggregateTest, FlippedMacByteFails) {
  // Any single-bit change in any signer's MAC changes the tag the
  // verifier must recompute.
  for (std::size_t victim = 0; victim < shares_.size(); victim += 5) {
    for (const std::size_t byte : {std::size_t{0}, std::size_t{17}, std::size_t{31}}) {
      std::vector<PartialSig> forged = shares_;
      forged[victim].sig.data()[byte] ^= 0x01;
      ThresholdSig bad = sig_;
      bad.tag = tag_from(forged);
      EXPECT_FALSE(auth_.check_aggregate(msg_, bad)) << "signer " << forged[victim].signer;
    }
  }
}

TEST_F(HmacAggregateTest, ExtraSignerFails) {
  for (ProcessId extra = 0; extra < kN; ++extra) {
    if (sig_.signers.contains(extra)) continue;
    ThresholdSig bad = sig_;
    bad.signers.add(extra);
    EXPECT_FALSE(auth_.check_aggregate(msg_, bad)) << "extra signer " << extra;
  }
}

TEST_F(HmacAggregateTest, MissingSignerFails) {
  for (const PartialSig& dropped : shares_) {
    ThresholdSig bad = sig_;
    bad.signers = SignerSet(kN);
    for (const PartialSig& share : shares_) {
      if (share.signer != dropped.signer) bad.signers.add(share.signer);
    }
    EXPECT_FALSE(auth_.check_aggregate(msg_, bad)) << "missing signer " << dropped.signer;
    // Dropping the share from the tag as well makes an honest 20-signer
    // aggregate, which the scheme accepts (the threshold is the caller's).
    std::vector<PartialSig> rest;
    for (const PartialSig& share : shares_) {
      if (share.signer != dropped.signer) rest.push_back(share);
    }
    bad.tag = tag_from(rest);
    EXPECT_TRUE(auth_.check_aggregate(msg_, bad));
  }
}

}  // namespace
}  // namespace lumiere::crypto
