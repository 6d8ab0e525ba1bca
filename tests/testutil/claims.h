// The tolerance the paper-claim suites share (Table1Claims*,
// WarmupClaims.*): sizes this small still carry lower-order terms, so a
// fitted log-log exponent for a bound O(n^k) may reach k + kFitSlack, and
// one for a Theta(n^k) must reach at least k - kFitSlack.
#pragma once

namespace lumiere::testutil {

inline constexpr double kFitSlack = 0.2;

}  // namespace lumiere::testutil
