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
/// block (the allocation the core's store holds) instead of copying it:
/// `hash()` and `parent()` read through `block`, so an entry is 48 bytes
/// and a ledger costs one pointer-sized record per block beyond the
/// blocks themselves.
struct CommittedEntry {
  [[nodiscard]] const crypto::Digest& hash() const noexcept { return block->hash(); }
  [[nodiscard]] const crypto::Digest& parent() const noexcept { return block->parent(); }

  View view = -1;
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
  /// continuity back to genesis — a violation here is a consensus-safety
  /// bug.
  void commit(std::shared_ptr<const Block> block, TimePoint at);

  [[nodiscard]] const std::vector<CommittedEntry>& entries() const noexcept { return entries_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// True if one log is a prefix of the other (by block hash).
  [[nodiscard]] bool prefix_consistent_with(const Ledger& other) const;

 private:
  std::vector<CommittedEntry> entries_;
};

}  // namespace lumiere::consensus
