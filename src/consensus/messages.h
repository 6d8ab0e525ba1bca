// Wire messages of the underlying protocol.
#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

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
  void collect_auth(AuthClaimSink& sink) const override { block_->justify().collect_auth(sink); }
  static MessagePtr deserialize(ser::Reader& r) {
    auto block = Block::deserialize(r);
    if (!block) return nullptr;
    return std::make_shared<ProposalMsg>(std::move(block));
  }

 private:
  std::shared_ptr<const Block> block_;
};

/// A replica's vote: a threshold share over the QC statement for
/// (view, block). On the inline-batch data path, a vote for v also
/// carries requests to lead(v) when that replica leads v+1 too: it
/// proposes v+1 on its own QC(v), before any NewView(v+1) could reach it
/// (consensus/chained_core.h). The attachment has NewViewMsg's format
/// and cost model: an empty one costs no modelled bytes.
class VoteMsg final : public Message {
 public:
  VoteMsg(View view, crypto::Digest block_hash, crypto::PartialSig share,
          std::vector<std::uint8_t> requests = {})
      : view_(view), block_hash_(block_hash), share_(share), requests_(std::move(requests)) {}

  [[nodiscard]] View view() const noexcept { return view_; }
  [[nodiscard]] const crypto::Digest& block_hash() const noexcept { return block_hash_; }
  [[nodiscard]] const crypto::PartialSig& share() const noexcept { return share_; }
  [[nodiscard]] const std::vector<std::uint8_t>& requests() const noexcept { return requests_; }

  std::uint32_t type_id() const override { return kVote; }
  const char* type_name() const override { return "vote"; }
  MsgClass msg_class() const override { return MsgClass::kConsensus; }
  std::size_t wire_size() const override {
    return 8 + crypto::Digest::kSize + share_.wire_size() + requests_.size();
  }
  void serialize(ser::Writer& w) const override {
    w.view(view_);
    w.digest(block_hash_);
    w.partial_sig(share_);
    w.bytes(std::span<const std::uint8_t>(requests_.data(), requests_.size()));
  }
  void collect_auth(AuthClaimSink& sink) const override {
    sink.share(QuorumCert::statement(view_, block_hash_), share_);
  }
  static MessagePtr deserialize(ser::Reader& r) {
    View view = -1;
    crypto::Digest hash;
    crypto::PartialSig share;
    std::vector<std::uint8_t> requests;
    if (!r.view(view) || !r.digest(hash) || !r.partial_sig(share) || !r.bytes(requests)) {
      return nullptr;
    }
    return std::make_shared<VoteMsg>(view, hash, share, std::move(requests));
  }

 private:
  View view_;
  crypto::Digest block_hash_;
  crypto::PartialSig share_;
  std::vector<std::uint8_t> requests_;
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
  void collect_auth(AuthClaimSink& sink) const override { qc_.collect_auth(sink); }
  static MessagePtr deserialize(ser::Reader& r) {
    auto qc = QuorumCert::deserialize(r);
    if (!qc) return nullptr;
    return std::make_shared<QcMsg>(std::move(*qc));
  }

 private:
  QuorumCert qc_;
};

/// Chained HotStuff: replica reports its highest QC to the new leader.
/// On the inline-batch data path it also carries requests to lead(v):
/// the ones this replica admitted since its last NewView or vote, and —
/// from the previous leader — the relay of attachments that reached it
/// after it proposed (consensus/chained_core.h). The attachment is a
/// batch in the proposal payload format; an empty one costs no modelled
/// bytes.
class NewViewMsg final : public Message {
 public:
  NewViewMsg(View view, QuorumCert high_qc, std::vector<std::uint8_t> requests = {})
      : view_(view), high_qc_(std::move(high_qc)), requests_(std::move(requests)) {}

  [[nodiscard]] View view() const noexcept { return view_; }
  [[nodiscard]] const QuorumCert& high_qc() const noexcept { return high_qc_; }
  [[nodiscard]] const std::vector<std::uint8_t>& requests() const noexcept { return requests_; }

  std::uint32_t type_id() const override { return kNewView; }
  const char* type_name() const override { return "new-view"; }
  MsgClass msg_class() const override { return MsgClass::kConsensus; }
  std::size_t wire_size() const override {
    return 8 + high_qc_.sig().wire_size() + requests_.size();
  }
  void serialize(ser::Writer& w) const override {
    w.view(view_);
    high_qc_.serialize(w);
    w.bytes(std::span<const std::uint8_t>(requests_.data(), requests_.size()));
  }
  void collect_auth(AuthClaimSink& sink) const override { high_qc_.collect_auth(sink); }
  static MessagePtr deserialize(ser::Reader& r) {
    View view = -1;
    if (!r.view(view)) return nullptr;
    auto qc = QuorumCert::deserialize(r);
    if (!qc) return nullptr;
    std::vector<std::uint8_t> requests;
    if (!r.bytes(requests)) return nullptr;
    return std::make_shared<NewViewMsg>(view, std::move(*qc), std::move(requests));
  }

 private:
  View view_;
  QuorumCert high_qc_;
  std::vector<std::uint8_t> requests_;
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
