// Wire-size drift: the modeled byte accounting (Message::wire_size(),
// what MetricsCollector charges) versus the real frame a TcpTransport
// ships (MessageCodec::encode(), [u32 type_id || body]).
//
// The two are intentionally NOT equal for certificate-bearing messages:
// the O(kappa) model folds the signer bitmap and the aggregate's
// statement/block binding digests into the kappa envelope (Section 2;
// crypto/threshold.h), while the real frame must carry them so the
// receiver can verify. This test pins the divergence EXACTLY, per
// registered message type and per registered authenticator scheme (the
// blob and tag lengths are scheme-reported via SigWireSpec, so each
// scheme's instance sizes are checked against its own frames): if either
// side changes — a field added to a serializer, a wire_size() formula
// touched, a new message type registered without an exemplar here — a
// test fails and the complexity accounting has to be re-justified rather
// than silently drifting.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "consensus/messages.h"
#include "crypto/authenticator.h"
#include "dissem/messages.h"
#include "pacemaker/messages.h"
#include "sync/messages.h"

namespace lumiere {
namespace {

// Serialization overheads the O(kappa) model folds away (documented in
// crypto/threshold.h and consensus/quorum_cert.h):
//   * a signer set ships u32 universe + u32 count + count * u32 ids;
//   * a full QC's 2-kappa envelope covers its statement digest and tag,
//     but the frame additionally ships the certified block hash — and,
//     when the QC rides inside another message (proposal justify,
//     new-view report), its own view number too.
constexpr std::size_t signer_set_bytes(std::uint32_t signers) { return 8 + 4ULL * signers; }
constexpr std::size_t kQcBlockHashBytes = crypto::Digest::kSize;
constexpr std::size_t kInnerQcViewBytes = 8;

crypto::ThresholdSig make_aggregate(const crypto::Authenticator& auth, std::uint32_t m,
                                    const crypto::Digest& statement) {
  crypto::QuorumAggregator agg(crypto::AuthView(&auth), statement, m);
  for (ProcessId id = 0; id < m; ++id) {
    agg.add(crypto::threshold_share(auth.signer_for(id), statement));
  }
  return agg.aggregate();
}

class WireDriftTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WireDriftTest, EveryRegisteredTypeMatchesItsModeledSizePlusDeclaredFold) {
  constexpr std::uint32_t kN = 7;
  constexpr std::uint32_t kQuorum = 5;       // 2f+1 at n=7
  constexpr std::uint32_t kSmallQuorum = 3;  // f+1
  const auto auth_owner = crypto::make_authenticator(GetParam(), kN, 11);
  const crypto::Authenticator& auth = *auth_owner;

  MessageCodec codec;
  consensus::register_consensus_messages(codec);
  pacemaker::register_pacemaker_messages(codec);
  dissem::register_dissem_messages(codec);
  sync::register_sync_messages(codec);
  codec.set_sig_wire(auth.wire_spec());

  const crypto::Digest block_hash = crypto::Sha256::hash("drift-block");
  const crypto::Digest qc_statement = consensus::QuorumCert::statement(5, block_hash);
  const consensus::QuorumCert qc(5, block_hash, make_aggregate(auth, kQuorum, qc_statement));
  const std::vector<std::uint8_t> payload(37, 0xAB);

  struct Exemplar {
    MessagePtr msg;
    std::size_t model_fold;  ///< real-frame bytes the O(kappa) model folds away
  };
  std::map<std::uint32_t, Exemplar> exemplars;
  const auto add = [&exemplars](MessagePtr msg, std::size_t fold) {
    const std::uint32_t id = msg->type_id();
    exemplars.emplace(id, Exemplar{std::move(msg), fold});
  };

  add(std::make_shared<consensus::ProposalMsg>(
          consensus::Block(block_hash, 6, payload, qc)),
      /*payload length prefix*/ 4 + kInnerQcViewBytes + signer_set_bytes(kQuorum) +
          kQcBlockHashBytes);
  add(std::make_shared<consensus::VoteMsg>(
          5, block_hash, crypto::threshold_share(auth.signer_for(0), qc_statement)),
      0);
  add(std::make_shared<consensus::QcMsg>(qc),
      signer_set_bytes(kQuorum) + kQcBlockHashBytes);
  // A NewView carries forwarded requests in the proposal payload format,
  // so like the proposal it folds the attachment's u32 length prefix.
  add(std::make_shared<consensus::NewViewMsg>(6, qc, payload),
      /*attachment length prefix*/ 4 + kInnerQcViewBytes + signer_set_bytes(kQuorum) +
          kQcBlockHashBytes);

  const auto share_of = [&auth](crypto::Digest (*statement)(View), View v) {
    return crypto::threshold_share(auth.signer_for(2), statement(v));
  };
  add(std::make_shared<pacemaker::ViewMsg>(9, share_of(&pacemaker::view_msg_statement, 9)), 0);
  add(std::make_shared<pacemaker::EpochViewMsg>(9, share_of(&pacemaker::epoch_msg_statement, 9)),
      0);
  add(std::make_shared<pacemaker::WishMsg>(9, share_of(&pacemaker::wish_statement, 9)), 0);

  const auto cert_of = [&](crypto::Digest (*statement)(View), View v, std::uint32_t m) {
    return pacemaker::SyncCert(v, make_aggregate(auth, m, statement(v)));
  };
  // A cert frame carries the statement digest alongside the tag; the
  // model's 2-kappa envelope covers both, so only the signer set folds.
  add(std::make_shared<pacemaker::VcMsg>(
          cert_of(&pacemaker::view_msg_statement, 9, kSmallQuorum)),
      signer_set_bytes(kSmallQuorum));
  add(std::make_shared<pacemaker::EcMsg>(
          cert_of(&pacemaker::epoch_msg_statement, 9, kQuorum)),
      signer_set_bytes(kQuorum));
  add(std::make_shared<pacemaker::WishCertMsg>(
          cert_of(&pacemaker::wish_statement, 9, kSmallQuorum)),
      signer_set_bytes(kSmallQuorum));

  // Dissemination (0x4000 range): the push is the only payload-bearing
  // message (its model already counts the payload bytes, so only the
  // length prefix folds); ack/fetch are exact; the cert's O(kappa)
  // envelope covers its statement and tag, folding just the signer set.
  const dissem::BatchId batch_id{
      2, 7, crypto::Sha256::hash(std::span<const std::uint8_t>(payload.data(), payload.size()))};
  const dissem::BatchCert batch_cert(
      batch_id, make_aggregate(auth, kSmallQuorum, dissem::batch_statement(batch_id)));
  add(std::make_shared<dissem::BatchPushMsg>(batch_id, payload), /*payload length prefix*/ 4);
  add(std::make_shared<dissem::BatchAckMsg>(
          batch_id, crypto::threshold_share(auth.signer_for(0),
                                            dissem::batch_statement(batch_id))),
      0);
  add(std::make_shared<dissem::BatchCertMsg>(batch_cert), signer_set_bytes(kSmallQuorum));
  add(std::make_shared<dissem::BatchFetchMsg>(batch_id), 0);

  // Block sync (0x5000 range): the fetch is exact; a response ships a
  // u32 block count plus, per block, exactly what a proposal ships — so
  // each block folds the same bytes as the ProposalMsg exemplar above.
  const auto sync_block = std::make_shared<const consensus::Block>(block_hash, 6, payload, qc);
  const auto sync_parent =
      std::make_shared<const consensus::Block>(qc.block_hash(), 5, payload, qc);
  add(std::make_shared<sync::BlockFetchMsg>(block_hash,
                                            sync::BlockRespMsg::kMaxBlocksPerResponse),
      0);
  add(std::make_shared<sync::BlockRespMsg>(
          sync_block->hash(), sync::BlockRespMsg::Blocks{sync_block, sync_parent}),
      /*count prefix*/ 4 +
          2 * (/*payload length prefix*/ 4 + kInnerQcViewBytes + signer_set_bytes(kQuorum) +
               kQcBlockHashBytes));

  for (const std::uint32_t type_id : codec.registered_types()) {
    const auto it = exemplars.find(type_id);
    ASSERT_NE(it, exemplars.end())
        << "registered type 0x" << std::hex << type_id
        << " has no drift exemplar — add one (and its model-fold accounting) above";
    const Message& msg = *it->second.msg;
    const std::vector<std::uint8_t> frame = MessageCodec::encode(msg);
    EXPECT_EQ(msg.wire_size() + it->second.model_fold, frame.size() - 4)
        << msg.type_name() << ": modeled size + declared fold != real frame body";
    // The frame must round-trip, so the exemplar actually exercises the
    // registered decoder (a decode-only or encode-only drift still trips).
    EXPECT_NE(codec.decode(frame), nullptr) << msg.type_name();
  }
  EXPECT_EQ(exemplars.size(), codec.registered_types().size())
      << "exemplar list and registry disagree";
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, WireDriftTest,
                         ::testing::ValuesIn(crypto::scheme_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace lumiere
