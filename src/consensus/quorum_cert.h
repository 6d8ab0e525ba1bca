// Quorum certificates (Section 2, "The underlying protocol").
//
// A QC for view v is a threshold signature by 2f+1 distinct processors
// testifying that they completed the instructions for view v on a given
// block. The accounting charges it O(kappa), independent of n (Section
// 2). The real frame ships the view, the block hash, a varint universe,
// an n-bit signer bitmap and the scheme tag. It does not ship the signed
// statement, which verify() recomputes from view and hash: at n = 4
// under ed25519 a QC body is 170 bytes, at n = 31 under HMAC 77.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/params.h"
#include "common/types.h"
#include "crypto/authenticator.h"
#include "crypto/sha256.h"
#include "ser/message.h"
#include "ser/serializer.h"

namespace lumiere::consensus {

class QcVerifyCache;

class QuorumCert {
 public:
  QuorumCert() = default;
  QuorumCert(View view, crypto::Digest block_hash, crypto::ThresholdSig sig)
      : view_(view), block_hash_(block_hash), sig_(std::move(sig)) {}

  /// The statement that vote shares sign: binds view and block.
  static crypto::Digest statement(View view, const crypto::Digest& block_hash);

  /// The genesis QC: certifies the genesis block at view -1. Trusted by
  /// construction (all processors are initialized with it), never
  /// verified cryptographically.
  static QuorumCert genesis(const crypto::Digest& genesis_hash);

  [[nodiscard]] View view() const noexcept { return view_; }
  [[nodiscard]] const crypto::Digest& block_hash() const noexcept { return block_hash_; }
  [[nodiscard]] const crypto::ThresholdSig& sig() const noexcept { return sig_; }
  [[nodiscard]] bool is_genesis() const noexcept { return view_ == -1; }

  /// Full verification: 2f+1 distinct valid signers over
  /// statement(view, block_hash). Genesis QCs verify trivially. With a
  /// cache, a QC whose exact bytes already verified is accepted by
  /// fingerprint lookup (one SHA-256) instead of re-checking the
  /// aggregate.
  [[nodiscard]] bool verify(crypto::AuthView auth, const ProtocolParams& params,
                            QcVerifyCache* cache = nullptr) const;

  /// Reports the aggregate and its statement to a pipeline worker
  /// (ser/message.h); the genesis QC carries none.
  void collect_auth(AuthClaimSink& sink) const {
    if (!is_genesis()) sink.aggregate(statement(view_, block_hash_), sig_);
  }

  /// [view][block hash][threshold sig]; the genesis QC (view -1) stops
  /// after the hash, since it has no signers to ship.
  void serialize(ser::Writer& w) const;
  [[nodiscard]] static std::optional<QuorumCert> deserialize(ser::Reader& r);

  bool operator==(const QuorumCert&) const = default;

 private:
  View view_ = -1;
  crypto::Digest block_hash_;
  crypto::ThresholdSig sig_;
};

/// Memo for QuorumCert::statement. A leader aggregating n votes — and a
/// replica checking n QC-bearing messages — keeps asking for the digest
/// of the same (view, block_hash) pair; this answers repeats without
/// re-running SHA-256. Direct-mapped by view (votes for view v and
/// proposals for v+1 land in different slots), so lookups are O(1) with
/// no allocation ever.
class StatementCache {
 public:
  // By value on purpose: a reference into a direct-mapped slot would be
  // silently invalidated by the next colliding get().
  [[nodiscard]] crypto::Digest get(View view, const crypto::Digest& block_hash) {
    Entry& entry = entries_[static_cast<std::size_t>(static_cast<std::uint64_t>(view) %
                                                     entries_.size())];
    if (!entry.valid || entry.view != view || entry.block_hash != block_hash) {
      entry.view = view;
      entry.block_hash = block_hash;
      entry.statement = QuorumCert::statement(view, block_hash);
      entry.valid = true;
    }
    return entry.statement;
  }

 private:
  struct Entry {
    View view = -1;
    crypto::Digest block_hash;
    crypto::Digest statement;
    bool valid = false;
  };
  std::array<Entry, 8> entries_{};
};

/// A bounded table of 32-byte fingerprints of objects that passed full
/// verification (QCs here, availability certs in dissem/), so a repeat
/// costs a lookup instead of a signature check. It is 4-way
/// set-associative: the key's leading bytes pick a set. The table starts
/// at kInitialSlots and doubles whenever a new key finds its set full,
/// up to the size it was built with; from then on remembering a key
/// evicts its set's oldest. Lookups are O(1), the table never outgrows
/// its bound, and junk an adversary sprays only cycles it; an evicted key
/// just verifies in full again. Keys are SHA-256 outputs, so they spread
/// evenly over the sets. The all-zero digest marks an empty slot.
class FingerprintMemo {
 public:
  static constexpr std::size_t kWays = 4;
  static constexpr std::size_t kInitialSlots = 256;

  /// `max_slots` rounds up to a power-of-two number of sets of kWays.
  explicit FingerprintMemo(std::size_t max_slots);

  [[nodiscard]] bool known_good(const crypto::Digest& key) const;
  void remember(const crypto::Digest& key);
  [[nodiscard]] std::size_t slots() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t max_slots() const noexcept { return max_slots_; }

 private:
  /// Index of the first way of `key`'s set.
  [[nodiscard]] std::size_t set_of(const crypto::Digest& key) const noexcept {
    return static_cast<std::size_t>(key.prefix64() & set_mask_) * kWays;
  }
  /// Puts `key` first in its set, shifting the set's oldest out.
  void place(const crypto::Digest& key);
  /// Doubles the table, re-placing every key with its set's age order.
  void grow();

  std::size_t max_slots_;
  std::vector<crypto::Digest> slots_;
  std::uint64_t set_mask_ = 0;
};

/// The memo of QCs that passed full verification, keyed by SHA-256 over
/// the full serialized form (no two distinct QCs share a key).
/// Re-verifying one costs a single hash instead of 2f+1 MAC checks — the
/// common case, since every proposal re-carries its justify QC and every
/// replica reports its high QC each view. A QC is re-checked only within
/// a few views of forming, so a fixed 256 slots (8 KiB) hold every live
/// one.
class QcVerifyCache : public FingerprintMemo {
 public:
  static constexpr std::size_t kSlots = 256;

  QcVerifyCache() : FingerprintMemo(kSlots) {}

  [[nodiscard]] crypto::Digest fingerprint(const QuorumCert& qc) {
    scratch_.clear();
    ser::Writer w(std::move(scratch_));
    qc.serialize(w);
    scratch_ = std::move(w).take();
    return crypto::Sha256::hash(
        std::span<const std::uint8_t>(scratch_.data(), scratch_.size()));
  }

 private:
  std::vector<std::uint8_t> scratch_;
};

}  // namespace lumiere::consensus
