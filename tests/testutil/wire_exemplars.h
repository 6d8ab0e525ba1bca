// One exemplar of every message type the wire codec registers, signed
// by a given authenticator at its cluster size, for tests that sweep the
// codec (tests/ser/wire_drift_test.cpp, message_roundtrip_test.cpp).
// Certificates carry real aggregates at the protocol thresholds
// (ProtocolParams::quorum() for QCs and ECs, small_quorum() for VCs, wish
// certs and batch certs), so their signer bitmaps and tags have the
// sizes a live cluster ships.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/params.h"
#include "consensus/messages.h"
#include "crypto/authenticator.h"
#include "dissem/messages.h"
#include "pacemaker/messages.h"
#include "sync/messages.h"

namespace lumiere::testutil {

/// An m-of-n aggregate over `statement` from signers 0..m-1.
inline crypto::ThresholdSig make_aggregate(const crypto::Authenticator& auth, std::uint32_t m,
                                           const crypto::Digest& statement) {
  crypto::QuorumAggregator agg(crypto::AuthView(&auth), statement, m);
  for (ProcessId id = 0; id < m; ++id) {
    agg.add(crypto::threshold_share(auth.signer_for(id), statement));
  }
  return agg.aggregate();
}

/// The exemplar QC every QC-bearing exemplar carries (view 5).
inline consensus::QuorumCert exemplar_qc(const crypto::Authenticator& auth) {
  const std::uint32_t quorum = ProtocolParams::for_n(auth.n(), Duration::millis(1)).quorum();
  const crypto::Digest block_hash = crypto::Sha256::hash("drift-block");
  return consensus::QuorumCert(
      5, block_hash,
      make_aggregate(auth, quorum, consensus::QuorumCert::statement(5, block_hash)));
}

/// The 37-byte payload of the exemplar proposal, new-view, push and
/// synced blocks.
inline std::vector<std::uint8_t> exemplar_payload() { return std::vector<std::uint8_t>(37, 0xAB); }

/// One message per registered type id (auth.n() >= 4).
inline std::map<std::uint32_t, MessagePtr> wire_exemplars(const crypto::Authenticator& auth) {
  const ProtocolParams params = ProtocolParams::for_n(auth.n(), Duration::millis(1));
  const std::uint32_t quorum = params.quorum();
  const std::uint32_t small_quorum = params.small_quorum();
  const consensus::QuorumCert qc = exemplar_qc(auth);
  const crypto::Digest& block_hash = qc.block_hash();
  const std::vector<std::uint8_t> payload = exemplar_payload();

  std::map<std::uint32_t, MessagePtr> out;
  const auto add = [&out](MessagePtr msg) {
    const std::uint32_t id = msg->type_id();
    out.emplace(id, std::move(msg));
  };

  add(std::make_shared<consensus::ProposalMsg>(consensus::Block(block_hash, 6, payload, qc)));
  const crypto::Digest vote_statement = consensus::QuorumCert::statement(5, block_hash);
  add(std::make_shared<consensus::VoteMsg>(
      5, block_hash, crypto::threshold_share(auth.signer_for(0), vote_statement)));
  add(std::make_shared<consensus::QcMsg>(qc));
  add(std::make_shared<consensus::NewViewMsg>(6, qc, payload));

  const auto share_of = [&auth](crypto::Digest (*statement)(View), View v) {
    return crypto::threshold_share(auth.signer_for(2), statement(v));
  };
  add(std::make_shared<pacemaker::ViewMsg>(9, share_of(&pacemaker::view_msg_statement, 9)));
  add(std::make_shared<pacemaker::EpochViewMsg>(9, share_of(&pacemaker::epoch_msg_statement, 9)));
  add(std::make_shared<pacemaker::WishMsg>(9, share_of(&pacemaker::wish_statement, 9)));

  const auto cert_of = [&auth](crypto::Digest (*statement)(View), View v, std::uint32_t m) {
    return pacemaker::SyncCert(v, make_aggregate(auth, m, statement(v)));
  };
  add(std::make_shared<pacemaker::VcMsg>(
      cert_of(&pacemaker::view_msg_statement, 9, small_quorum)));
  add(std::make_shared<pacemaker::EcMsg>(cert_of(&pacemaker::epoch_msg_statement, 9, quorum)));
  add(std::make_shared<pacemaker::WishCertMsg>(
      cert_of(&pacemaker::wish_statement, 9, small_quorum)));

  const dissem::BatchId batch_id{
      2, 7, crypto::Sha256::hash(std::span<const std::uint8_t>(payload.data(), payload.size()))};
  const dissem::BatchCert batch_cert(
      batch_id, make_aggregate(auth, small_quorum, dissem::batch_statement(batch_id)));
  add(std::make_shared<dissem::BatchPushMsg>(batch_id, payload));
  add(std::make_shared<dissem::BatchAckMsg>(
      batch_id,
      crypto::threshold_share(auth.signer_for(0), dissem::batch_statement(batch_id))));
  add(std::make_shared<dissem::BatchCertMsg>(batch_cert));
  add(std::make_shared<dissem::BatchFetchMsg>(batch_id));

  const auto sync_block = std::make_shared<const consensus::Block>(block_hash, 6, payload, qc);
  const auto sync_parent = std::make_shared<const consensus::Block>(block_hash, 5, payload, qc);
  add(std::make_shared<sync::BlockFetchMsg>(block_hash,
                                            sync::BlockRespMsg::kMaxBlocksPerResponse));
  add(std::make_shared<sync::BlockRespMsg>(
      sync_block->hash(), sync::BlockRespMsg::Blocks{sync_block, sync_parent}));
  return out;
}

}  // namespace lumiere::testutil
