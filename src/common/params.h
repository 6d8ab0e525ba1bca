// Protocol-wide parameters (Section 2 of the paper).
#pragma once

#include <cstdint>

#include "common/assert.h"
#include "common/time.h"
#include "common/types.h"

namespace lumiere {

/// The static parameters every protocol component is configured with.
///
/// * `n >= 3f + 1` processors, at most `f` Byzantine. `n = 3f + 1` is the
///   optimal-resilience point the paper analyzes; larger clusters (e.g.
///   the 5-process soak topology) keep `f = floor((n-1)/3)` and a quorum
///   of ceil((n+f+1)/2), so any two quorums still intersect in at least
///   f+1 processors (>= 1 honest). At n = 3f + 1 that quorum is exactly
///   the classic 2f+1 — byte-identical to the historical formula, which
///   the golden-digest tests pin.
/// * `delta_cap` is the *known* post-GST delivery bound Delta.
/// * `x` is the view-completion constant of the underlying protocol
///   ((diamond-1) in Section 2): with an honest leader and quorum() honest
///   processors synchronized in the view, a QC is produced and received
///   within `x * delta_actual`. Our SimpleViewCore has x = 3
///   (propose, vote, QC dissemination).
struct ProtocolParams {
  std::uint32_t n = 4;
  std::uint32_t f = 1;
  Duration delta_cap = Duration::millis(100);  ///< Delta, the known bound.
  std::uint32_t x = 3;                         ///< view-completion constant.

  /// ceil((n + f + 1) / 2): the smallest count whose pairwise
  /// intersection exceeds f. Equals 2f+1 exactly when n = 3f+1.
  [[nodiscard]] std::uint32_t quorum() const noexcept { return (n + f) / 2 + 1; }
  [[nodiscard]] std::uint32_t small_quorum() const noexcept { return f + 1; }    ///< f+1

  /// Validates n >= 3f + 1 and basic sanity. Throws nothing; aborts on
  /// misconfiguration (a configuration bug, not a runtime condition).
  void validate() const {
    // (n - 1) / 3 >= f is n >= 3f + 1 without a 3f + 1 that can wrap.
    LUMIERE_ASSERT_MSG(n >= 1 && (n - 1) / 3 >= f, "ProtocolParams requires n >= 3f + 1");
    LUMIERE_ASSERT_MSG(f >= 1, "ProtocolParams requires f >= 1 (so n >= 4)");
    LUMIERE_ASSERT(delta_cap > Duration::zero());
    LUMIERE_ASSERT(x >= 2);
  }

  /// Convenience factory from n (any n >= 4; f = floor((n-1)/3)).
  static ProtocolParams for_n(std::uint32_t n, Duration delta_cap, std::uint32_t x = 3) {
    ProtocolParams p;
    p.n = n;
    p.f = (n - 1) / 3;
    p.delta_cap = delta_cap;
    p.x = x;
    p.validate();
    return p;
  }
};

}  // namespace lumiere
