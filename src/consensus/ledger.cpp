#include "consensus/ledger.h"

#include <algorithm>

namespace lumiere::consensus {

void Ledger::commit(std::shared_ptr<const Block> block, TimePoint at) {
  if (!entries_.empty()) {
    const CommittedEntry& prev = entries_.back();
    LUMIERE_ASSERT_MSG(block->view() > prev.view(), "ledger: commit views must increase");
    LUMIERE_ASSERT_MSG(block->parent() == prev.hash(),
                       "ledger: committed chain broken (safety violation)");
  } else {
    LUMIERE_ASSERT_MSG(block->parent() == Block::genesis().hash(),
                       "ledger: first commit must extend genesis");
  }
  const std::span<const std::uint8_t> payload(block->payload().data(), block->payload().size());
  entries_.push_back(CommittedEntry{std::move(block), payload, at});
  if (2 * entries_.size() > index_.size()) {
    // Double (from 64 slots) and re-place every entry.
    index_.assign(std::max<std::size_t>(64, 2 * index_.size()), 0);
    for (std::size_t height = 0; height < entries_.size(); ++height) {
      index(static_cast<std::uint32_t>(height));
    }
  } else {
    index(static_cast<std::uint32_t>(entries_.size() - 1));
  }
}

void Ledger::index(std::uint32_t height) {
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = static_cast<std::size_t>(entries_[height].hash().prefix64()) & mask;
  while (index_[slot] != 0) slot = (slot + 1) & mask;
  index_[slot] = height + 1;
}

const CommittedEntry* Ledger::find(const crypto::Digest& hash) const {
  if (index_.empty()) return nullptr;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t slot = static_cast<std::size_t>(hash.prefix64()) & mask; index_[slot] != 0;
       slot = (slot + 1) & mask) {
    const CommittedEntry& entry = entries_[index_[slot] - 1];
    if (entry.hash() == hash) return &entry;
  }
  return nullptr;
}

bool Ledger::prefix_consistent_with(const Ledger& other) const {
  const std::size_t common = std::min(entries_.size(), other.entries_.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (entries_[i].hash() != other.entries_[i].hash()) return false;
  }
  return true;
}

}  // namespace lumiere::consensus
