// Wire messages of the data-dissemination layer (0x4000 range).
//
// The dissemination traffic is deliberately off the ordering path:
// BatchPush carries the only payload bytes in the system once
// dissemination is on, BatchAck/BatchCert are O(kappa) control messages,
// and BatchFetch is the recovery path for a replica that committed a
// reference it never stored.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "dissem/batch.h"
#include "ser/message.h"

namespace lumiere::dissem {

/// Message type tags (0x4000 range — see Message::type_id()).
enum MsgType : std::uint32_t {
  kBatchPush = 0x4001,
  kBatchAck = 0x4002,
  kBatchCertAnnounce = 0x4003,
  kBatchFetch = 0x4004,
};

/// A batch's bytes: immutable once leased, shared by the push messages
/// and every Disseminator store that holds them (one buffer per process).
using BatchBytes = std::shared_ptr<const std::vector<std::uint8_t>>;

/// Origin (or fetch responder) streams a batch's bytes to a replica.
class BatchPushMsg final : public Message {
 public:
  BatchPushMsg(BatchId id, BatchBytes payload) : id_(id), payload_(std::move(payload)) {}
  /// Allocates the shared buffer from a value (decoding, tests, benches).
  BatchPushMsg(BatchId id, std::vector<std::uint8_t> payload)
      : BatchPushMsg(id, std::make_shared<const std::vector<std::uint8_t>>(std::move(payload))) {}

  [[nodiscard]] const BatchId& id() const noexcept { return id_; }
  [[nodiscard]] const std::vector<std::uint8_t>& payload() const noexcept { return *payload_; }
  [[nodiscard]] const BatchBytes& shared_payload() const noexcept { return payload_; }

  std::uint32_t type_id() const override { return kBatchPush; }
  const char* type_name() const override { return "batch-push"; }
  MsgClass msg_class() const override { return MsgClass::kDissem; }
  std::size_t wire_size() const override { return BatchId::wire_size() + payload_->size(); }
  void serialize(ser::Writer& w) const override {
    id_.serialize(w);
    w.bytes(std::span<const std::uint8_t>(payload_->data(), payload_->size()));
  }
  static MessagePtr deserialize(ser::Reader& r) {
    auto id = BatchId::deserialize(r);
    std::vector<std::uint8_t> payload;
    if (!id || !r.bytes(payload)) return nullptr;
    return std::make_shared<BatchPushMsg>(*id, std::move(payload));
  }

 private:
  BatchId id_;
  BatchBytes payload_;
};

/// A replica's signed availability ack: "I stored this batch".
class BatchAckMsg final : public Message {
 public:
  BatchAckMsg(BatchId id, crypto::PartialSig share) : id_(id), share_(share) {}

  [[nodiscard]] const BatchId& id() const noexcept { return id_; }
  [[nodiscard]] const crypto::PartialSig& share() const noexcept { return share_; }

  std::uint32_t type_id() const override { return kBatchAck; }
  const char* type_name() const override { return "batch-ack"; }
  MsgClass msg_class() const override { return MsgClass::kDissem; }
  std::size_t wire_size() const override {
    return BatchId::wire_size() + share_.wire_size();
  }
  void serialize(ser::Writer& w) const override {
    id_.serialize(w);
    w.partial_sig(share_);
  }
  void collect_auth(AuthClaimSink& sink) const override {
    sink.share(batch_statement(id_), share_);
  }
  static MessagePtr deserialize(ser::Reader& r) {
    auto id = BatchId::deserialize(r);
    crypto::PartialSig share;
    if (!id || !r.partial_sig(share)) return nullptr;
    return std::make_shared<BatchAckMsg>(*id, share);
  }

 private:
  BatchId id_;
  crypto::PartialSig share_;
};

/// PoA dissemination: the origin announces a freshly aggregated cert so
/// every prospective leader can order the batch.
class BatchCertMsg final : public Message {
 public:
  explicit BatchCertMsg(BatchCert cert) : cert_(std::move(cert)) {}

  [[nodiscard]] const BatchCert& cert() const noexcept { return cert_; }

  std::uint32_t type_id() const override { return kBatchCertAnnounce; }
  const char* type_name() const override { return "batch-cert"; }
  MsgClass msg_class() const override { return MsgClass::kDissem; }
  std::size_t wire_size() const override { return cert_.wire_size(); }
  void serialize(ser::Writer& w) const override { cert_.serialize(w); }
  void collect_auth(AuthClaimSink& sink) const override { sink.aggregate(cert_.sig()); }
  static MessagePtr deserialize(ser::Reader& r) {
    auto cert = BatchCert::deserialize(r);
    if (!cert) return nullptr;
    return std::make_shared<BatchCertMsg>(std::move(*cert));
  }

 private:
  BatchCert cert_;
};

/// Fetch-on-miss: a replica that must apply a committed reference it
/// never stored asks a cert signer for the bytes.
class BatchFetchMsg final : public Message {
 public:
  explicit BatchFetchMsg(BatchId id) : id_(id) {}

  [[nodiscard]] const BatchId& id() const noexcept { return id_; }

  std::uint32_t type_id() const override { return kBatchFetch; }
  const char* type_name() const override { return "batch-fetch"; }
  MsgClass msg_class() const override { return MsgClass::kDissem; }
  std::size_t wire_size() const override { return BatchId::wire_size(); }
  void serialize(ser::Writer& w) const override { id_.serialize(w); }
  static MessagePtr deserialize(ser::Reader& r) {
    auto id = BatchId::deserialize(r);
    if (!id) return nullptr;
    return std::make_shared<BatchFetchMsg>(*id);
  }

 private:
  BatchId id_;
};

/// Registers all dissemination message types with a codec (for the TCP
/// transport).
inline void register_dissem_messages(MessageCodec& codec) {
  codec.register_type(kBatchPush, &BatchPushMsg::deserialize);
  codec.register_type(kBatchAck, &BatchAckMsg::deserialize);
  codec.register_type(kBatchCertAnnounce, &BatchCertMsg::deserialize);
  codec.register_type(kBatchFetch, &BatchFetchMsg::deserialize);
}

}  // namespace lumiere::dissem
