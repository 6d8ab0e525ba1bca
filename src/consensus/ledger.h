// The committed log (SMR output).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "common/assert.h"
#include "common/time.h"
#include "consensus/block.h"

namespace lumiere::consensus {

/// One committed block, in commit order. It references the committed
/// block (the allocation the proposal carried) instead of copying it:
/// `view()`, `hash()` and `parent()` read through `block`, so an entry is
/// 40 bytes and a ledger costs five words per block beyond the blocks
/// themselves. Once committed, a block lives only here: the core's store
/// drops it, and block sync serves it through Ledger::find.
struct CommittedEntry {
  [[nodiscard]] View view() const noexcept { return block->view(); }
  [[nodiscard]] const crypto::Digest& hash() const noexcept { return block->hash(); }
  [[nodiscard]] const crypto::Digest& parent() const noexcept { return block->parent(); }

  std::shared_ptr<const Block> block;
  /// The block's payload bytes, viewed in place; `block` keeps them alive.
  std::span<const std::uint8_t> payload;
  TimePoint committed_at;
};
static_assert(sizeof(CommittedEntry) == 40, "an entry is the block pointer, payload view and time");

/// An append-only commit log with basic integrity checks. Cross-node
/// prefix consistency (the SMR safety property) is checked by tests via
/// `prefix_consistent_with`.
class Ledger {
 public:
  /// Appends a committed block. Asserts view monotonicity and parent-hash
  /// continuity back to genesis — a violation here is a consensus-safety
  /// bug.
  void commit(std::shared_ptr<const Block> block, TimePoint at);

  /// Every entry, oldest first. Indexing, front()/back() and iteration
  /// work as on a vector; references to entries stay valid across later
  /// commits.
  [[nodiscard]] const std::deque<CommittedEntry>& entries() const noexcept { return entries_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// True if one log is a prefix of the other (by block hash).
  [[nodiscard]] bool prefix_consistent_with(const Ledger& other) const;

  /// The entry committing `hash`, or nullptr if none. The pointer stays
  /// valid for the ledger's lifetime: commits append without moving
  /// earlier entries. O(1) expected: any peer may ask for any hash
  /// through block sync, so a miss must not cost a scan of the history.
  [[nodiscard]] const CommittedEntry* find(const crypto::Digest& hash) const;

 private:
  /// Adds entries_[height] to index_, which must have a free slot.
  void index(std::uint32_t height);

  /// Chunked storage (a deque's fixed-size blocks): an append costs one
  /// entry, never a capacity doubling or a copy of the history, and never
  /// moves an earlier entry.
  std::deque<CommittedEntry> entries_;
  /// Open-addressing hash index over entries_: height + 1 per slot (0 is
  /// empty), placed by the digest's leading bytes, probed linearly. A
  /// power of two at most half full, so 4 bytes a slot and no node per
  /// entry.
  std::vector<std::uint32_t> index_;
};

}  // namespace lumiere::consensus
