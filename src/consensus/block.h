// Blocks: the units the underlying SMR protocol chains and commits.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "consensus/quorum_cert.h"
#include "crypto/sha256.h"
#include "ser/serializer.h"

namespace lumiere::consensus {

/// An immutable proposed block. `justify` is the QC the proposer extends
/// (chained-HotStuff style); SimpleViewCore also carries it so that every
/// block is self-certifying about its parent's quorum.
///
/// A block is allocated once and shared read-only, as
/// `std::shared_ptr<const Block>`, by every holder in the process: the
/// proposal message, each replica's BlockStore and pending-proposal slot,
/// block-sync responses and ledger entries. Sharing is safe because a
/// Block cannot change after construction and its hash is computed once,
/// by the constructor (deserialize constructs from the received fields,
/// so a decoded block's hash is always recomputed): every holder sees the
/// same bytes under the same content address. Never copy a Block; pass
/// the pointer. `shared_from_this()` recovers it from a reference.
class Block : public std::enable_shared_from_this<Block> {
 public:
  Block(crypto::Digest parent, View view, std::vector<std::uint8_t> payload, QuorumCert justify);

  /// The deterministic genesis block (view -1, no payload).
  static const Block& genesis();

  [[nodiscard]] const crypto::Digest& hash() const noexcept { return hash_; }
  [[nodiscard]] const crypto::Digest& parent() const noexcept { return parent_; }
  [[nodiscard]] View view() const noexcept { return view_; }
  [[nodiscard]] const std::vector<std::uint8_t>& payload() const noexcept { return payload_; }
  [[nodiscard]] const QuorumCert& justify() const noexcept { return justify_; }

  void serialize(ser::Writer& w) const;
  /// Decodes one block into a new allocation; nullptr on malformed input.
  [[nodiscard]] static std::shared_ptr<const Block> deserialize(ser::Reader& r);

  bool operator==(const Block& other) const noexcept { return hash_ == other.hash_; }

 private:
  Block() = default;
  void compute_hash();

  crypto::Digest parent_;
  View view_ = -1;
  std::vector<std::uint8_t> payload_;
  QuorumCert justify_;
  crypto::Digest hash_;
};

/// Content-addressed block storage per node. It keeps the allocation the
/// proposal or sync response carried, not a copy.
class BlockStore {
 public:
  BlockStore();

  /// Inserts a block (idempotent); returns the stored pointer, which is
  /// the earlier allocation when the hash was already known.
  std::shared_ptr<const Block> insert(std::shared_ptr<const Block> block);

  [[nodiscard]] std::shared_ptr<const Block> get(const crypto::Digest& hash) const;
  [[nodiscard]] bool contains(const crypto::Digest& hash) const;

  /// Walks the parent chain: returns the ancestor `steps` levels above, or
  /// nullptr if the chain is not locally complete.
  [[nodiscard]] std::shared_ptr<const Block> ancestor(const crypto::Digest& hash,
                                                      std::uint32_t steps) const;

  /// True if `descendant` extends (or equals) `ancestor` within the
  /// locally known chain.
  [[nodiscard]] bool extends(const crypto::Digest& descendant, const crypto::Digest& ancestor) const;

  [[nodiscard]] std::size_t size() const noexcept { return blocks_.size(); }

 private:
  std::unordered_map<crypto::Digest, std::shared_ptr<const Block>> blocks_;
};

}  // namespace lumiere::consensus
