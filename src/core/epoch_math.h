// Epoch/view arithmetic for Lumiere (Section 4).
//
// Epoch e consists of the 10n views [10n*e, 10n*(e+1)). Views come in
// leader pairs (tenure 2): even views are initial, odd views are
// non-initial grace periods. Each epoch is 5 "segments" of 2n views; one
// segment gives every processor exactly one pair of consecutive views, so
// each processor leads exactly 10 views per epoch. The clock side (c_v,
// boundaries, the boundary alarm) is the kit's GammaGrid.
#pragma once

#include <cstdint>

#include "pacemaker/view_sync_kit.h"

namespace lumiere::core {

class EpochMath : public pacemaker::GammaGrid {
 public:
  /// Segments per epoch (the paper's factor 5: 10n views / 2n per segment).
  static constexpr std::int64_t kSegmentsPerEpoch = 5;
  /// Views each leader leads per epoch (the success criterion's "10 QCs").
  static constexpr std::int64_t kViewsPerLeaderPerEpoch = 2 * kSegmentsPerEpoch;

  EpochMath(std::uint32_t n, Duration gamma) : GammaGrid(gamma), n_(n) { LUMIERE_ASSERT(n > 0); }

  [[nodiscard]] std::int64_t views_per_epoch() const noexcept {
    return kSegmentsPerEpoch * 2 * static_cast<std::int64_t>(n_);
  }
  [[nodiscard]] std::int64_t views_per_segment() const noexcept {
    return 2 * static_cast<std::int64_t>(n_);
  }

  /// V(e): the first view (the epoch view) of epoch e.
  [[nodiscard]] View epoch_first_view(Epoch e) const noexcept { return e * views_per_epoch(); }

  /// E(v): the epoch view v belongs to (E(-1) = -1).
  [[nodiscard]] Epoch epoch_of(View v) const noexcept {
    if (v < 0) return -1;
    return v / views_per_epoch();
  }

  [[nodiscard]] bool is_epoch_view(View v) const noexcept {
    return v >= 0 && v % views_per_epoch() == 0;
  }
  [[nodiscard]] static bool is_initial(View v) noexcept { return v >= 0 && v % 2 == 0; }

  /// Segment index of view v (permutation window for the leader schedule).
  [[nodiscard]] std::int64_t segment_of(View v) const noexcept {
    return v >= 0 ? v / views_per_segment() : -1;
  }

  [[nodiscard]] std::uint32_t n() const noexcept { return n_; }

 private:
  std::uint32_t n_;
};

}  // namespace lumiere::core
