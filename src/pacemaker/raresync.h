// RareSync (Civit et al., DISC 2022 [7]) — the other quadratic-optimal
// epoch-based synchronizer discussed in Section 6.
//
// RareSync is LP22 without the responsive QC path: views are batched into
// epochs of f+1 views with the same heavy all-to-all synchronization at
// each epoch start, but views inside an epoch advance only when the local
// clock reaches c_v. Every view therefore costs a full Gamma even on a
// perfect network. It inherits everything from Lp22Pacemaker, the way
// NaorKeidarPacemaker inherits from CogsworthPacemaker, and overrides
// only on_qc.
//
// Included as a baseline because the paper positions Lumiere against
// both [7] and [12]: RareSync shows what O(n^2) worst-case costs without
// responsiveness; LP22 adds the QC fast path but inherits issues (i) and
// (ii); Lumiere fixes both.
#pragma once

#include "pacemaker/lp22.h"

namespace lumiere::pacemaker {

class RareSyncPacemaker final : public Lp22Pacemaker {
 public:
  using Lp22Pacemaker::Lp22Pacemaker;

  /// Deliberately empty: QCs only matter to the underlying protocol.
  void on_qc(const consensus::QuorumCert& /*qc*/) override {}
  [[nodiscard]] const char* name() const override { return "raresync"; }
};

}  // namespace lumiere::pacemaker
