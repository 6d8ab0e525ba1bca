// Lumiere's leader schedule (Section 4).
//
// Leaders get two consecutive views. Each 2n-view segment is ordered by a
// permutation; the paper requires that the last leader of epoch e equal
// the first leader of epoch e+1 (so one honest leader can bridge the
// epoch change, Lemma 5.13). The paper phrases this with a random family
// (g_0, ..., g_{z-1}) where odd-indexed permutations are followed by
// their reverses; with 5 segments per epoch that stipulation does not
// land a reverse-pair on every epoch boundary, so we implement the
// footnote's *intent* directly: the first segment of each epoch e >= 1
// uses the reverse of the last segment of epoch e-1, and every other
// segment draws a fresh seeded random permutation. This satisfies
// exactly the property the proof uses; this comment is the record of
// the deviation. Only a bounded window of segments is cached (see below), so
// a replica's schedule costs O(n) however many views it runs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/epoch_math.h"
#include "pacemaker/leader_schedule.h"

namespace lumiere::core {

/// Permutations are cached for a fixed window of kCachedSegments
/// segments, direct-mapped by segment number: a cluster walks the views
/// forwards, so a replica's cache holds its recent segments, and a miss
/// recomputes the segment from the seed. The cache is O(n) whatever the
/// run length.
class ReversePermutationSchedule final : public pacemaker::LeaderSchedule {
 public:
  static constexpr std::size_t kCachedSegments = 8;

  ReversePermutationSchedule(std::uint32_t n, std::uint64_t seed)
      : n_(n), seed_(seed) {
    LUMIERE_ASSERT(n > 0);
  }

  [[nodiscard]] ProcessId leader_of(View v) const override {
    if (v < 0) return 0;
    const auto segment = v / (2 * static_cast<std::int64_t>(n_));
    const auto slot = static_cast<std::uint32_t>((v / 2) % n_);
    return cached(segment)[slot];
  }

  /// The permutation ordering leaders within `segment` (exposed for
  /// tests). A copy: a later lookup may evict the cached one.
  [[nodiscard]] std::vector<std::uint32_t> permutation_for(std::int64_t segment) const {
    return cached(segment);
  }

  /// Segments whose permutation is cached now; at most kCachedSegments.
  [[nodiscard]] std::size_t cached_segments() const noexcept {
    std::size_t held = 0;
    for (const Entry& entry : cache_) held += entry.perm.empty() ? 0 : 1;
    return held;
  }

 private:
  struct Entry {
    std::int64_t segment = 0;
    std::vector<std::uint32_t> perm;  ///< empty until the entry is filled
  };

  /// The cached permutation for `segment`, computed on a miss. Valid until
  /// the next lookup of a segment that maps to the same entry.
  const std::vector<std::uint32_t>& cached(std::int64_t segment) const {
    Entry& entry = cache_[static_cast<std::uint64_t>(segment) % kCachedSegments];
    if (!entry.perm.empty() && entry.segment == segment) return entry.perm;
    if (segment > 0 && segment % EpochMath::kSegmentsPerEpoch == 0) {
      // Epoch boundary: reverse of the previous segment's ordering, so
      // perm[0] == prev[n-1] (same leader bridges the boundary). The
      // previous segment maps to another entry, so `prev` stays valid.
      const auto& prev = cached(segment - 1);
      entry.perm.assign(prev.rbegin(), prev.rend());
    } else {
      Rng rng(seed_ ^ (static_cast<std::uint64_t>(segment) * 0x9e3779b97f4a7c15ULL) ^
              0x1ead5c8edULL);
      entry.perm = rng.permutation(n_);
    }
    entry.segment = segment;
    return entry.perm;
  }

  std::uint32_t n_;
  std::uint64_t seed_;
  mutable std::array<Entry, kCachedSegments> cache_;
};

}  // namespace lumiere::core
