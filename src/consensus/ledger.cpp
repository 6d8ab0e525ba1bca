#include "consensus/ledger.h"

namespace lumiere::consensus {

void Ledger::commit(std::shared_ptr<const Block> block, TimePoint at) {
  if (!entries_.empty()) {
    const CommittedEntry& prev = entries_.back();
    LUMIERE_ASSERT_MSG(block->view() > prev.view, "ledger: commit views must increase");
    LUMIERE_ASSERT_MSG(block->parent() == prev.hash,
                       "ledger: committed chain broken (safety violation)");
  } else {
    LUMIERE_ASSERT_MSG(block->parent() == base_parent_,
                       "ledger: first commit must extend its base "
                       "(genesis, or the adopted checkpoint)");
  }
  const std::span<const std::uint8_t> payload(block->payload().data(), block->payload().size());
  entries_.push_back(CommittedEntry{block->view(), block->hash(), block->parent(),
                                    std::move(block), payload, at});
}

void Ledger::adopt_base(const crypto::Digest& parent) {
  LUMIERE_ASSERT_MSG(entries_.empty(), "ledger: adopt_base on a non-empty ledger");
  base_parent_ = parent;
  adopted_ = true;
}

bool Ledger::prefix_consistent_with(const Ledger& other) const {
  const std::size_t common = std::min(entries_.size(), other.entries_.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (entries_[i].hash != other.entries_[i].hash) return false;
  }
  return true;
}

}  // namespace lumiere::consensus
