// The committed log (SMR output).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/assert.h"
#include "common/time.h"
#include "consensus/block.h"

namespace lumiere::consensus {

/// One committed block, in commit order. It references the committed
/// block (the allocation the core's store holds) instead of copying it.
struct CommittedEntry {
  View view = -1;
  crypto::Digest hash;
  crypto::Digest parent;
  std::shared_ptr<const Block> block;
  /// The block's payload bytes, viewed in place; `block` keeps them alive.
  std::span<const std::uint8_t> payload;
  TimePoint committed_at;
};

/// An append-only commit log with basic integrity checks. Cross-node
/// prefix consistency (the SMR safety property) is checked by tests via
/// `prefix_consistent_with`.
class Ledger {
 public:
  /// Appends a committed block. Asserts view monotonicity and parent-hash
  /// continuity — a violation here is a consensus-safety bug.
  void commit(std::shared_ptr<const Block> block, TimePoint at);

  /// Crash recovery: declares that this (still empty) ledger's first
  /// commit extends `parent` — a certified checkpoint adopted by the
  /// consensus core — instead of genesis. The ledger then records a
  /// committed *suffix* of the cluster's chain, not a full prefix.
  void adopt_base(const crypto::Digest& parent);
  [[nodiscard]] bool checkpoint_adopted() const noexcept { return adopted_; }
  /// Hash the first committed entry must extend (genesis, or the adopted
  /// checkpoint's parent).
  [[nodiscard]] const crypto::Digest& base_parent() const noexcept { return base_parent_; }

  [[nodiscard]] const std::vector<CommittedEntry>& entries() const noexcept { return entries_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// True if one log is a prefix of the other (by block hash).
  [[nodiscard]] bool prefix_consistent_with(const Ledger& other) const;

 private:
  std::vector<CommittedEntry> entries_;
  crypto::Digest base_parent_ = Block::genesis().hash();
  bool adopted_ = false;
};

}  // namespace lumiere::consensus
