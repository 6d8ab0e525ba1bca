// Basic Lumiere (Section 3.4): LP22's epochs + Fever's clock bumping.
//
// Epochs of 2(f+1) views (leader pairs). Every epoch starts with LP22's
// heavy all-to-all synchronization (pause at c_{V(e)}, broadcast
// epoch-view messages, EC admits). Within the epoch, Fever runs: even
// views are initial (view message to the leader, f+1 aggregate into a VC),
// odd views are grace periods entered on QCs, and QCs/VCs/ECs all bump
// lagging clocks forward.
//
// The composition is literal: this is FeverPacemaker at tenure 2 with the
// kit's epoch synchronization (GridPacemaker, shared with LP22) switched
// on every 2(f+1) views; it adds no handler of its own. VCs exist only
// for initial non-epoch views.
//
// Result: O(n^2) worst-case communication (amortized over the epoch) and
// smooth optimistic responsiveness — each faulty leader costs at most
// Gamma. What it still lacks is the success criterion of Section 3.5:
// every epoch pays the Theta(n^2) synchronization forever, so eventual
// worst-case communication stays Theta(n^2). Gamma = 2(x+1)*Delta, which
// is Fever's tenure-2 default.
#pragma once

#include "pacemaker/fever.h"

namespace lumiere::core {

class BasicLumierePacemaker final : public pacemaker::FeverPacemaker {
 public:
  /// `gamma` is the per-view budget; zero means 2(x+1) * Delta.
  BasicLumierePacemaker(const ProtocolParams& params, ProcessId self, crypto::Signer signer,
                        pacemaker::PacemakerWiring wiring, Duration gamma)
      : FeverPacemaker(params, self, signer, std::move(wiring), gamma, /*tenure=*/2,
                       /*views_per_epoch=*/2 * static_cast<std::int64_t>(params.f + 1)) {}

  [[nodiscard]] const char* name() const override { return "basic-lumiere"; }
};

}  // namespace lumiere::core
