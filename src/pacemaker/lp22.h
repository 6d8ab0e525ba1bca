// LP22 (Lewis-Pye 2022 [12]), as described in Section 3.2 of the paper.
//
// Views are batched into epochs of f+1 views. Entering an epoch requires
// a heavy all-to-all synchronization: at local-clock time c_{V(e)} a
// processor pauses its clock and broadcasts an epoch-view message; 2f+1
// such messages aggregate into an Epoch Certificate (EC), which is
// broadcast and admits everyone (setting lc := c_{V(e)}). Within the
// epoch, views are entered when the local clock reaches c_v, or early
// when a QC for v-1 arrives — but the local clock is never advanced on
// QCs, which is exactly why:
//
//  (i)  a single Byzantine leader late in the epoch costs Omega(n*Delta)
//       between decisions infinitely often (Figure 1), and
//  (ii) every epoch requires Theta(n^2) messages forever.
//
// Lumiere exists to remove both. The clock rules and the epoch sync are
// the kit's GridPacemaker (tenure 1, epochs of f+1 views); this class
// adds the QC fast path. Gamma defaults to (x+1) * Delta.
#pragma once

#include "pacemaker/view_sync_kit.h"

namespace lumiere::pacemaker {

class Lp22Pacemaker : public GridPacemaker {
 public:
  /// `gamma` is the per-view budget; zero means default_gamma(params).
  Lp22Pacemaker(const ProtocolParams& params, ProcessId self, crypto::Signer signer,
                PacemakerWiring wiring, Duration gamma)
      : GridPacemaker(params, self, signer, std::move(wiring),
                      gamma > Duration::zero() ? gamma : default_gamma(params),
                      /*tenure=*/1, /*views_per_epoch=*/params.f + 1) {}

  /// LP22's per-view budget: Gamma = (x+1) * Delta.
  [[nodiscard]] static Duration default_gamma(const ProtocolParams& params) {
    return params.delta_cap * (params.x + 1);
  }

  void on_qc(const consensus::QuorumCert& qc) override {
    // "Processor p enters non-epoch view v when ... p sees a QC for view
    // v-1." No clock bump — the defining weakness of LP22.
    const View next = qc.view() + 1;
    if (!is_epoch_view(next)) enter_view(next);
  }
  [[nodiscard]] const char* name() const override { return "lp22"; }
};

}  // namespace lumiere::pacemaker
