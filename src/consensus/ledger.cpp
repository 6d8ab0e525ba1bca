#include "consensus/ledger.h"

namespace lumiere::consensus {

void Ledger::commit(std::shared_ptr<const Block> block, TimePoint at) {
  if (!entries_.empty()) {
    const CommittedEntry& prev = entries_.back();
    LUMIERE_ASSERT_MSG(block->view() > prev.view, "ledger: commit views must increase");
    LUMIERE_ASSERT_MSG(block->parent() == prev.hash,
                       "ledger: committed chain broken (safety violation)");
  } else {
    LUMIERE_ASSERT_MSG(block->parent() == Block::genesis().hash(),
                       "ledger: first commit must extend genesis");
  }
  const std::span<const std::uint8_t> payload(block->payload().data(), block->payload().size());
  entries_.push_back(CommittedEntry{block->view(), block->hash(), block->parent(),
                                    std::move(block), payload, at});
}

bool Ledger::prefix_consistent_with(const Ledger& other) const {
  const std::size_t common = std::min(entries_.size(), other.entries_.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (entries_[i].hash != other.entries_[i].hash) return false;
  }
  return true;
}

}  // namespace lumiere::consensus
