// Batch identity and proof-of-availability certificates.
//
// A batch is an opaque mempool payload (length-prefixed commands, see
// consensus/mempool.h) named by its origin, a per-origin sequence number
// and the payload digest. An origin collects f+1 signed availability
// acks into a BatchCert: with at most f Byzantine processes, at least
// one honest replica stores the payload and will serve a fetch, so a
// certified reference can be ordered without its bytes (Autobahn's PoA,
// arXiv 2401.10369; threshold machinery from crypto/authenticator.h).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/params.h"
#include "common/types.h"
#include "crypto/sha256.h"
#include "crypto/authenticator.h"
#include "ser/serializer.h"

namespace lumiere::dissem {

/// Globally unique batch name. The digest binds the bytes; origin + seq
/// give replicas a compact per-origin stream to track.
struct BatchId {
  ProcessId origin = kNoProcess;
  std::uint64_t seq = 0;
  crypto::Digest digest;

  bool operator==(const BatchId&) const = default;
  auto operator<=>(const BatchId&) const = default;

  /// Modeled wire size: origin + seq + digest.
  [[nodiscard]] static constexpr std::size_t wire_size() noexcept {
    return 4 + 8 + crypto::Digest::kSize;
  }

  void serialize(ser::Writer& w) const {
    w.process(origin);
    w.u64(seq);
    w.digest(digest);
  }
  [[nodiscard]] static std::optional<BatchId> deserialize(ser::Reader& r) {
    BatchId id;
    if (!r.process(id.origin) || !r.u64(id.seq) || !r.digest(id.digest)) return std::nullopt;
    return id;
  }
};

/// The statement an availability ack signs: domain-separated binding of
/// the full batch identity. Built in a stack buffer (QuorumCert::statement
/// idiom) — this runs once per push on every replica.
[[nodiscard]] crypto::Digest batch_statement(const BatchId& id);

/// Proof of availability: an f+1 threshold signature over the batch
/// statement. f+1 signers guarantee at least one honest holder.
class BatchCert {
 public:
  BatchCert() = default;
  BatchCert(BatchId id, crypto::ThresholdSig sig) : id_(id), sig_(std::move(sig)) {}

  [[nodiscard]] const BatchId& id() const noexcept { return id_; }
  [[nodiscard]] const crypto::ThresholdSig& sig() const noexcept { return sig_; }

  /// Full verification: the aggregate covers this batch's statement with
  /// at least f+1 distinct valid signers.
  [[nodiscard]] bool verify(crypto::AuthView auth, const ProtocolParams& params) const;

  /// Modeled wire size: identity + the scheme's aggregate envelope.
  [[nodiscard]] std::size_t wire_size() const noexcept {
    return BatchId::wire_size() + sig_.wire_size();
  }

  /// Exact length of serialize()'s output.
  [[nodiscard]] std::size_t serialized_size() const noexcept {
    return BatchId::wire_size() + crypto::Digest::kSize + 4 + 4 +
           sig_.signers.count() * sizeof(ProcessId) + sig_.tag.size();
  }

  void serialize(ser::Writer& w) const;
  [[nodiscard]] static std::optional<BatchCert> deserialize(ser::Reader& r);

  bool operator==(const BatchCert&) const = default;

 private:
  BatchId id_;
  crypto::ThresholdSig sig_;
};

/// Magic prefixing a references payload. Deliberately larger than any
/// plausible u32 command-length prefix (commands are bounded by the batch
/// byte budget), so a refs payload can never parse as a legacy inline
/// batch and vice versa.
inline constexpr std::uint32_t kRefsMagic = 0xBA7C4EF5;

/// Encodes an ordered list of certified references as a block payload:
/// [magic][count][count x BatchCert]. An empty list encodes to an empty
/// payload (an empty proposal stays empty on the wire).
[[nodiscard]] std::vector<std::uint8_t> encode_refs(const std::vector<BatchCert>& refs);

/// True iff `payload` starts with the refs magic.
[[nodiscard]] bool is_refs_payload(std::span<const std::uint8_t> payload);

/// Decodes a refs payload; nullopt when malformed or not magic-prefixed.
/// `sig_wire` is the authenticator scheme's wire geometry (the refs
/// embed threshold aggregates whose tag length is scheme-reported).
[[nodiscard]] std::optional<std::vector<BatchCert>> decode_refs(
    std::span<const std::uint8_t> payload, crypto::SigWireSpec sig_wire = {});

}  // namespace lumiere::dissem
