// Every protocol message must round-trip through the codec (the TCP
// transport depends on it; the simulator does not, which is exactly why a
// dedicated test is needed to keep serialization honest).
#include <gtest/gtest.h>

#include <memory>

#include "consensus/messages.h"
#include "crypto/authenticator.h"
#include "pacemaker/messages.h"
#include "ser/message.h"

namespace lumiere {
namespace {

class MessageRoundTripTest : public ::testing::Test {
 protected:
  MessageRoundTripTest() {
    consensus::register_consensus_messages(codec_);
    pacemaker::register_pacemaker_messages(codec_);
  }

  MessagePtr reencode(const Message& msg) {
    const auto frame = MessageCodec::encode(msg);
    return codec_.decode(frame);
  }

  std::unique_ptr<crypto::Authenticator> auth_ =
      crypto::make_authenticator(crypto::kDefaultScheme, 4, 5);
  MessageCodec codec_;

  [[nodiscard]] crypto::AuthView auth() const { return crypto::AuthView(auth_.get()); }
};

TEST_F(MessageRoundTripTest, Proposal) {
  const consensus::QuorumCert genesis =
      consensus::QuorumCert::genesis(consensus::Block::genesis().hash());
  const consensus::Block block(consensus::Block::genesis().hash(), 3, {1, 2, 3}, genesis);
  const consensus::ProposalMsg msg(block);
  const MessagePtr decoded = reencode(msg);
  ASSERT_NE(decoded, nullptr);
  const auto& p = static_cast<const consensus::ProposalMsg&>(*decoded);
  EXPECT_EQ(p.block().hash(), block.hash());
  EXPECT_EQ(p.block().view(), 3);
  EXPECT_EQ(p.block().payload(), (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST_F(MessageRoundTripTest, Vote) {
  const crypto::Digest h = crypto::Sha256::hash("block");
  const auto share =
      crypto::threshold_share(auth_->signer_for(1), consensus::QuorumCert::statement(5, h));
  const consensus::VoteMsg msg(5, h, share);
  const MessagePtr decoded = reencode(msg);
  ASSERT_NE(decoded, nullptr);
  const auto& v = static_cast<const consensus::VoteMsg&>(*decoded);
  EXPECT_EQ(v.view(), 5);
  EXPECT_EQ(v.block_hash(), h);
  EXPECT_EQ(v.share(), share);
}

TEST_F(MessageRoundTripTest, QcAnnounce) {
  const crypto::Digest h = crypto::Sha256::hash("b");
  const crypto::Digest stmt = consensus::QuorumCert::statement(9, h);
  crypto::QuorumAggregator agg(auth(), stmt, 3);
  for (ProcessId id = 0; id < 3; ++id) agg.add(crypto::threshold_share(auth_->signer_for(id), stmt));
  const consensus::QuorumCert qc(9, h, agg.aggregate());
  const consensus::QcMsg msg(qc);
  const MessagePtr decoded = reencode(msg);
  ASSERT_NE(decoded, nullptr);
  const auto& q = static_cast<const consensus::QcMsg&>(*decoded);
  EXPECT_EQ(q.qc(), qc);
  EXPECT_TRUE(q.qc().verify(auth(), ProtocolParams::for_n(4, Duration::millis(1))));
}

TEST_F(MessageRoundTripTest, NewView) {
  const consensus::QuorumCert genesis =
      consensus::QuorumCert::genesis(consensus::Block::genesis().hash());
  const consensus::NewViewMsg msg(12, genesis);
  const MessagePtr decoded = reencode(msg);
  ASSERT_NE(decoded, nullptr);
  const auto& nv = static_cast<const consensus::NewViewMsg&>(*decoded);
  EXPECT_EQ(nv.view(), 12);
  EXPECT_EQ(nv.high_qc(), genesis);
  EXPECT_TRUE(nv.requests().empty());

  // Forwarded requests ride along byte for byte.
  const std::vector<std::uint8_t> requests = {2, 0, 0, 0, 0xC7, 9};  // one 2-byte command
  const MessagePtr with_requests = reencode(consensus::NewViewMsg(13, genesis, requests));
  ASSERT_NE(with_requests, nullptr);
  EXPECT_EQ(static_cast<const consensus::NewViewMsg&>(*with_requests).requests(), requests);
}

TEST_F(MessageRoundTripTest, PacemakerShares) {
  const auto view_share =
      crypto::threshold_share(auth_->signer_for(2), pacemaker::view_msg_statement(8));
  const pacemaker::ViewMsg vm(8, view_share);
  auto decoded = reencode(vm);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(static_cast<const pacemaker::ViewMsg&>(*decoded).view(), 8);
  EXPECT_EQ(static_cast<const pacemaker::ViewMsg&>(*decoded).share(), view_share);

  const auto epoch_share =
      crypto::threshold_share(auth_->signer_for(0), pacemaker::epoch_msg_statement(40));
  decoded = reencode(pacemaker::EpochViewMsg(40, epoch_share));
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(static_cast<const pacemaker::EpochViewMsg&>(*decoded).share(), epoch_share);

  const auto wish_share =
      crypto::threshold_share(auth_->signer_for(3), pacemaker::wish_statement(4));
  decoded = reencode(pacemaker::WishMsg(4, wish_share));
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(static_cast<const pacemaker::WishMsg&>(*decoded).share(), wish_share);
}

TEST_F(MessageRoundTripTest, PacemakerCerts) {
  crypto::QuorumAggregator agg(auth(), pacemaker::view_msg_statement(6), 2);
  agg.add(crypto::threshold_share(auth_->signer_for(0), pacemaker::view_msg_statement(6)));
  agg.add(crypto::threshold_share(auth_->signer_for(1), pacemaker::view_msg_statement(6)));
  const pacemaker::SyncCert cert(6, agg.aggregate());
  const MessagePtr decoded = reencode(pacemaker::VcMsg(cert));
  ASSERT_NE(decoded, nullptr);
  const auto& vc = static_cast<const pacemaker::VcMsg&>(*decoded);
  EXPECT_EQ(vc.cert(), cert);
  EXPECT_TRUE(vc.cert().verify(auth(), 2, &pacemaker::view_msg_statement));
}

TEST_F(MessageRoundTripTest, UnknownTypeRejected) {
  std::vector<std::uint8_t> frame = {0xFF, 0xFF, 0x00, 0x00};  // type 0xFFFF
  EXPECT_EQ(codec_.decode(frame), nullptr);
}

TEST_F(MessageRoundTripTest, TruncatedFrameRejected) {
  const consensus::QuorumCert genesis =
      consensus::QuorumCert::genesis(consensus::Block::genesis().hash());
  const consensus::NewViewMsg msg(12, genesis);
  auto frame = MessageCodec::encode(msg);
  frame.resize(frame.size() / 2);
  EXPECT_EQ(codec_.decode(frame), nullptr);
}

TEST_F(MessageRoundTripTest, WireSizesAreOrderKappa) {
  // Every BVS message is O(kappa): independent of n. The constants here
  // pin the modeled sizes used by the byte-level metrics.
  const auto share =
      crypto::threshold_share(auth_->signer_for(0), pacemaker::view_msg_statement(1));
  EXPECT_EQ(pacemaker::ViewMsg(1, share).wire_size(), 8 + kKappaBytes + 4);
  crypto::QuorumAggregator agg(auth(), pacemaker::view_msg_statement(2), 2);
  agg.add(crypto::threshold_share(auth_->signer_for(0), pacemaker::view_msg_statement(2)));
  agg.add(crypto::threshold_share(auth_->signer_for(1), pacemaker::view_msg_statement(2)));
  EXPECT_EQ(pacemaker::VcMsg(pacemaker::SyncCert(2, agg.aggregate())).wire_size(),
            8 + 2 * kKappaBytes);
}

}  // namespace
}  // namespace lumiere
