// Wire messages of the underlying protocol.
#pragma once

#include <memory>
#include <optional>
#include <utility>

#include "consensus/block.h"
#include "consensus/quorum_cert.h"
#include "ser/message.h"

namespace lumiere::consensus {

/// Message type tags (0x1000 range — see Message::type_id()).
enum MsgType : std::uint32_t {
  kProposal = 0x1001,
  kVote = 0x1002,
  kQcAnnounce = 0x1003,
  kNewView = 0x1004,
};

/// Leader's proposal for a view. A broadcast hands every recipient this
/// one message, so every replica stores the same block allocation.
class ProposalMsg final : public Message {
 public:
  explicit ProposalMsg(std::shared_ptr<const Block> block) : block_(std::move(block)) {}
  /// Allocates the shared block from a value (tests, micro-benchmarks).
  explicit ProposalMsg(Block block) : block_(std::make_shared<const Block>(std::move(block))) {}

  [[nodiscard]] const Block& block() const noexcept { return *block_; }
  [[nodiscard]] const std::shared_ptr<const Block>& shared_block() const noexcept {
    return block_;
  }

  std::uint32_t type_id() const override { return kProposal; }
  const char* type_name() const override { return "proposal"; }
  MsgClass msg_class() const override { return MsgClass::kConsensus; }
  std::size_t wire_size() const override {
    // parent digest + view + payload + justify QC envelope.
    return crypto::Digest::kSize + 8 + block_->payload().size() +
           block_->justify().sig().wire_size();
  }
  void serialize(ser::Writer& w) const override { block_->serialize(w); }
  void collect_auth(AuthClaimSink& sink) const override {
    if (!block_->justify().is_genesis()) sink.aggregate(block_->justify().sig());
  }
  static MessagePtr deserialize(ser::Reader& r) {
    auto block = Block::deserialize(r);
    if (!block) return nullptr;
    return std::make_shared<ProposalMsg>(std::move(block));
  }

 private:
  std::shared_ptr<const Block> block_;
};

/// A replica's vote: a threshold share over the QC statement for
/// (view, block).
class VoteMsg final : public Message {
 public:
  VoteMsg(View view, crypto::Digest block_hash, crypto::PartialSig share)
      : view_(view), block_hash_(block_hash), share_(share) {}

  [[nodiscard]] View view() const noexcept { return view_; }
  [[nodiscard]] const crypto::Digest& block_hash() const noexcept { return block_hash_; }
  [[nodiscard]] const crypto::PartialSig& share() const noexcept { return share_; }

  std::uint32_t type_id() const override { return kVote; }
  const char* type_name() const override { return "vote"; }
  MsgClass msg_class() const override { return MsgClass::kConsensus; }
  std::size_t wire_size() const override {
    return 8 + crypto::Digest::kSize + share_.wire_size();
  }
  void serialize(ser::Writer& w) const override {
    w.view(view_);
    w.digest(block_hash_);
    w.partial_sig(share_);
  }
  void collect_auth(AuthClaimSink& sink) const override {
    sink.share(QuorumCert::statement(view_, block_hash_), share_);
  }
  static MessagePtr deserialize(ser::Reader& r) {
    View view = -1;
    crypto::Digest hash;
    crypto::PartialSig share;
    if (!r.view(view) || !r.digest(hash) || !r.partial_sig(share)) {
      return nullptr;
    }
    return std::make_shared<VoteMsg>(view, hash, share);
  }

 private:
  View view_;
  crypto::Digest block_hash_;
  crypto::PartialSig share_;
};

/// QC dissemination: "the successful completion of a view v is marked by
/// all processors receiving a QC for view v" (Section 2).
class QcMsg final : public Message {
 public:
  explicit QcMsg(QuorumCert qc) : qc_(std::move(qc)) {}

  [[nodiscard]] const QuorumCert& qc() const noexcept { return qc_; }

  std::uint32_t type_id() const override { return kQcAnnounce; }
  const char* type_name() const override { return "qc"; }
  MsgClass msg_class() const override { return MsgClass::kConsensus; }
  std::size_t wire_size() const override { return 8 + qc_.sig().wire_size(); }
  void serialize(ser::Writer& w) const override { qc_.serialize(w); }
  void collect_auth(AuthClaimSink& sink) const override {
    if (!qc_.is_genesis()) sink.aggregate(qc_.sig());
  }
  static MessagePtr deserialize(ser::Reader& r) {
    auto qc = QuorumCert::deserialize(r);
    if (!qc) return nullptr;
    return std::make_shared<QcMsg>(std::move(*qc));
  }

 private:
  QuorumCert qc_;
};

/// Chained HotStuff: replica reports its highest QC to the new leader.
class NewViewMsg final : public Message {
 public:
  NewViewMsg(View view, QuorumCert high_qc) : view_(view), high_qc_(std::move(high_qc)) {}

  [[nodiscard]] View view() const noexcept { return view_; }
  [[nodiscard]] const QuorumCert& high_qc() const noexcept { return high_qc_; }

  std::uint32_t type_id() const override { return kNewView; }
  const char* type_name() const override { return "new-view"; }
  MsgClass msg_class() const override { return MsgClass::kConsensus; }
  std::size_t wire_size() const override { return 8 + high_qc_.sig().wire_size(); }
  void serialize(ser::Writer& w) const override {
    w.view(view_);
    high_qc_.serialize(w);
  }
  void collect_auth(AuthClaimSink& sink) const override {
    if (!high_qc_.is_genesis()) sink.aggregate(high_qc_.sig());
  }
  static MessagePtr deserialize(ser::Reader& r) {
    View view = -1;
    if (!r.view(view)) return nullptr;
    auto qc = QuorumCert::deserialize(r);
    if (!qc) return nullptr;
    return std::make_shared<NewViewMsg>(view, std::move(*qc));
  }

 private:
  View view_;
  QuorumCert high_qc_;
};

/// Registers all consensus message types with a codec (for the TCP
/// transport).
inline void register_consensus_messages(MessageCodec& codec) {
  codec.register_type(kProposal, &ProposalMsg::deserialize);
  codec.register_type(kVote, &VoteMsg::deserialize);
  codec.register_type(kQcAnnounce, &QcMsg::deserialize);
  codec.register_type(kNewView, &NewViewMsg::deserialize);
}

}  // namespace lumiere::consensus
