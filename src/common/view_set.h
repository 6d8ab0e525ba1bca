// An exact set of views, stored as a bitmap: one 64-bit word per block of
// 64 consecutive views, keyed by v >> 6 (an arithmetic shift, so negative
// views such as the genesis view -1 land in word -1). Over a dense run
// of views that is a few bits per view (the word plus its hash node,
// shared by 64 views) instead of a ~48-byte tree node per view.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/types.h"

namespace lumiere {

class ViewSet {
 public:
  /// Adds `v`; true if it was not in the set yet.
  bool insert(View v) {
    std::uint64_t& word = words_[v >> 6];
    const std::uint64_t bit = mask(v);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }

  [[nodiscard]] bool contains(View v) const {
    const auto it = words_.find(v >> 6);
    return it != words_.end() && (it->second & mask(v)) != 0;
  }

 private:
  /// The bit of `v` within its word: v & 63 is its offset in [0, 64) for
  /// negative views too (two's complement).
  static std::uint64_t mask(View v) { return std::uint64_t{1} << (v & 63); }

  std::unordered_map<View, std::uint64_t> words_;
};

}  // namespace lumiere
