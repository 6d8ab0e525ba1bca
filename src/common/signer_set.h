// A compact set of processor indices, used to track which processors
// contributed to a certificate (QC / VC / EC / TC).
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/types.h"

namespace lumiere {

/// Dynamic bitset over processor ids [0, n). Insertion-order agnostic;
/// equality is set equality.
class SignerSet {
 public:
  SignerSet() = default;
  explicit SignerSet(std::uint32_t n) : words_((n + 63) / 64, 0), n_(n) {}

  [[nodiscard]] std::uint32_t universe_size() const noexcept { return n_; }

  /// Adds a signer; returns false if it was already present.
  bool add(ProcessId id) {
    LUMIERE_ASSERT(id < n_);
    const std::uint64_t bit = 1ULL << (id % 64);
    if ((words_[id / 64] & bit) != 0) return false;
    words_[id / 64] |= bit;
    ++count_;
    return true;
  }

  [[nodiscard]] bool contains(ProcessId id) const {
    if (id >= n_) return false;
    return (words_[id / 64] & (1ULL << (id % 64))) != 0;
  }

  [[nodiscard]] std::uint32_t count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// All member ids in increasing order.
  [[nodiscard]] std::vector<ProcessId> members() const {
    std::vector<ProcessId> out;
    out.reserve(count_);
    for (ProcessId id = 0; id < n_; ++id) {
      if (contains(id)) out.push_back(id);
    }
    return out;
  }

  /// Calls `fn(id)` for every member in increasing order, without
  /// allocating (members() for callers that want a vector).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        fn(static_cast<ProcessId>(64 * w + static_cast<std::size_t>(__builtin_ctzll(bits))));
      }
    }
  }

  /// Number of members also present in `other` (intersection size).
  [[nodiscard]] std::uint32_t intersection_count(const SignerSet& other) const {
    LUMIERE_ASSERT(n_ == other.n_);
    std::uint32_t total = 0;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      total += static_cast<std::uint32_t>(__builtin_popcountll(words_[w] & other.words_[w]));
    }
    return total;
  }

  bool operator==(const SignerSet& other) const = default;

 private:
  std::vector<std::uint64_t> words_;
  std::uint32_t n_ = 0;
  std::uint32_t count_ = 0;
};

}  // namespace lumiere
