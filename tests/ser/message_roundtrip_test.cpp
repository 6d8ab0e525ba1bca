// Every protocol message must round-trip through the codec (the TCP
// transport depends on it; the simulator does not, which is exactly why a
// dedicated test is needed to keep serialization honest).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "consensus/messages.h"
#include "crypto/authenticator.h"
#include "pacemaker/messages.h"
#include "runtime/node_host.h"
#include "ser/message.h"
#include "testutil/wire_exemplars.h"

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
  const consensus::Block block(3, {1, 2, 3}, genesis);
  const consensus::ProposalMsg msg(block);
  const MessagePtr decoded = reencode(msg);
  ASSERT_NE(decoded, nullptr);
  const auto& p = static_cast<const consensus::ProposalMsg&>(*decoded);
  EXPECT_EQ(p.block().hash(), block.hash());
  EXPECT_EQ(p.block().view(), 3);
  EXPECT_EQ(p.block().parent(), consensus::Block::genesis().hash());
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
  EXPECT_TRUE(v.requests().empty());

  // Forwarded requests ride along byte for byte, and nothing may follow
  // them.
  const std::vector<std::uint8_t> requests = {2, 0, 0, 0, 0xC7, 9};  // one 2-byte command
  const consensus::VoteMsg with(5, h, share, requests);
  const MessagePtr with_requests = reencode(with);
  ASSERT_NE(with_requests, nullptr);
  const auto& carried = static_cast<const consensus::VoteMsg&>(*with_requests);
  EXPECT_EQ(carried.requests(), requests);
  EXPECT_EQ(carried.share(), share);
  for (const consensus::VoteMsg* vote : {&msg, &with}) {
    auto frame = MessageCodec::encode(*vote);
    frame.push_back(0);
    EXPECT_EQ(codec_.decode(frame), nullptr) << vote->requests().size() << " request bytes";
  }
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
  EXPECT_FALSE(nv.view_share().has_value());

  // The sender's view share rides behind a presence byte.
  const auto share =
      crypto::threshold_share(auth_->signer_for(3), pacemaker::view_msg_statement(14));
  const consensus::NewViewMsg carrying(14, genesis, requests, share);
  std::vector<std::uint8_t> frame = MessageCodec::encode(carrying);
  const std::size_t bare_size =
      MessageCodec::encode(consensus::NewViewMsg(14, genesis, requests)).size();
  EXPECT_EQ(frame.size(), bare_size + share.wire_size());
  const MessagePtr with_share = codec_.decode(frame);
  ASSERT_NE(with_share, nullptr);
  const auto& decoded_share = static_cast<const consensus::NewViewMsg&>(*with_share);
  EXPECT_EQ(decoded_share.view(), 14);
  EXPECT_EQ(decoded_share.requests(), requests);
  ASSERT_TRUE(decoded_share.view_share().has_value());
  EXPECT_EQ(*decoded_share.view_share(), share);
  EXPECT_EQ(decoded_share.wire_size(), carrying.wire_size());

  // One encoding per message: a trailing byte is refused, with or without
  // a share, and so is a presence byte other than 0 or 1.
  frame.push_back(0);
  EXPECT_EQ(codec_.decode(frame), nullptr);
  std::vector<std::uint8_t> bare = MessageCodec::encode(msg);
  bare.push_back(0);
  EXPECT_EQ(codec_.decode(bare), nullptr);
  bare.pop_back();
  bare.back() = 2;
  EXPECT_EQ(codec_.decode(bare), nullptr);
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

/// Every registered type under every scheme and at cluster sizes around
/// the bitmap's byte and word edges: the frame decodes, re-encodes to the
/// same bytes, and the certificates it carries still verify — their
/// statements are recomputed, never shipped.
class WireRoundTripTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint32_t>> {};

TEST_P(WireRoundTripTest, EveryRegisteredTypeReencodesByteIdentically) {
  const auto& [scheme, n] = GetParam();
  const auto auth_owner = crypto::make_authenticator(scheme, n, 3);
  const crypto::AuthView auth(auth_owner.get());
  const ProtocolParams params = ProtocolParams::for_n(n, Duration::millis(1));
  const MessageCodec codec = runtime::wire_codec(*auth_owner);
  const auto exemplars = testutil::wire_exemplars(*auth_owner);
  ASSERT_EQ(exemplars.size(), codec.registered_types().size());
  for (const auto& [type_id, msg] : exemplars) {
    const std::vector<std::uint8_t> frame = MessageCodec::encode(*msg);
    const MessagePtr decoded = codec.decode(frame);
    ASSERT_NE(decoded, nullptr) << msg->type_name();
    EXPECT_EQ(MessageCodec::encode(*decoded), frame) << msg->type_name();
    EXPECT_EQ(decoded->wire_size(), msg->wire_size()) << msg->type_name();
  }

  const auto decoded_as = [&](std::uint32_t type_id) {
    return codec.decode(MessageCodec::encode(*exemplars.at(type_id)));
  };
  const auto qc = std::static_pointer_cast<const consensus::QcMsg>(
      decoded_as(consensus::kQcAnnounce));
  EXPECT_TRUE(qc->qc().verify(auth, params));
  const auto proposal = std::static_pointer_cast<const consensus::ProposalMsg>(
      decoded_as(consensus::kProposal));
  EXPECT_TRUE(proposal->block().justify().verify(auth, params));
  const auto vc = std::static_pointer_cast<const pacemaker::VcMsg>(decoded_as(pacemaker::kVcMsg));
  EXPECT_TRUE(vc->cert().verify(auth, params.small_quorum(), &pacemaker::view_msg_statement));
  EXPECT_FALSE(vc->cert().verify(auth, params.small_quorum(), &pacemaker::wish_statement));
  const auto ec = std::static_pointer_cast<const pacemaker::EcMsg>(decoded_as(pacemaker::kEcMsg));
  EXPECT_TRUE(ec->cert().verify(auth, params.quorum(), &pacemaker::epoch_msg_statement));
  const auto certs = std::static_pointer_cast<const dissem::BatchCertMsg>(
      decoded_as(dissem::kBatchCertAnnounce));
  ASSERT_EQ(certs->certs().size(), 1U);
  EXPECT_TRUE(certs->certs().front().verify(auth, params));
}

TEST_P(WireRoundTripTest, EveryRegisteredTypeRejectsATrailingByte) {
  // A frame has one encoding: bytes past a complete body are refused,
  // not ignored, so two different frames never decode to one message.
  const auto& [scheme, n] = GetParam();
  const auto auth_owner = crypto::make_authenticator(scheme, n, 3);
  const MessageCodec codec = runtime::wire_codec(*auth_owner);
  const auto exemplars = testutil::wire_exemplars(*auth_owner);
  ASSERT_EQ(exemplars.size(), codec.registered_types().size());
  for (const auto& [type_id, msg] : exemplars) {
    std::vector<std::uint8_t> frame = MessageCodec::encode(*msg);
    ASSERT_NE(codec.decode(frame), nullptr) << msg->type_name();
    for (const std::uint8_t trailing : {0x00, 0xFF}) {
      frame.push_back(trailing);
      EXPECT_EQ(codec.decode(frame), nullptr) << msg->type_name() << " + " << int{trailing};
      frame.pop_back();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, WireRoundTripTest,
    ::testing::Combine(::testing::ValuesIn(crypto::scheme_names()),
                       ::testing::Values(4U, 7U, 31U, 64U, 65U)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_n" + std::to_string(std::get<1>(info.param));
    });

TEST_F(MessageRoundTripTest, GenesisQcShipsNoSignature) {
  // The genesis QC has no signers; its frame stops after view and hash,
  // and decodes back to the genesis QC.
  const consensus::QuorumCert genesis =
      consensus::QuorumCert::genesis(consensus::Block::genesis().hash());
  ser::Writer w;
  genesis.serialize(w);
  EXPECT_EQ(w.size(), 8 + crypto::Digest::kSize);
  ser::Reader r(std::span<const std::uint8_t>(w.data().data(), w.size()));
  const auto decoded = consensus::QuorumCert::deserialize(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, genesis);
  EXPECT_TRUE(r.exhausted());
}

}  // namespace
}  // namespace lumiere
