// Fever (Lewis-Pye & Abraham [13]), as described in Section 3.3.
//
// No epochs. Views come in leader tenures of `tenure` consecutive views
// (the paper's base protocol uses tenure = 2): views divisible by the
// tenure are "initial", the rest are grace periods. A processor enters
// initial view v when its local clock reads exactly c_v = Gamma * v, and
// sends a signed view-v message to lead(v); f+1 of those aggregate into a
// View Certificate (VC) which, like any QC, *bumps* lagging clocks
// forward to c_v. The leader sends it only to the processes it has not
// heard a view-v message from (VcFanout): the others are in view v.
// Non-initial views are entered on the QC for the previous view.
//
// Clock bumps keep the (f+1)-st honest gap bounded by Gamma forever —
// but only if it starts that way: Fever assumes hg_{f+1,0} <= Gamma at
// time 0, a non-standard synchronized-start assumption (our harness
// grants it by starting all processors together; the paper's Table 1
// labels the model "Bounded Clocks").
//
// The Section 3.3 remark "Reducing Gamma" is implemented via `tenure`:
// giving each leader T consecutive views lets Gamma shrink toward
// (x+1) * Delta as T grows — the liveness budget needs
// Gamma >= (2 + T x) Delta / (T - 1), which is 2(x+1) Delta at T = 2
// (the paper's constant) and approaches x Delta from above for large T.
// Larger tenures proportionally reduce per-view overhead at the cost of
// longer worst-case stretches owned by one (possibly faulty) leader.
//
// The clock rules are the kit's GridPacemaker with no epochs; this class
// adds the VC path and the clock bumps. BasicLumierePacemaker reuses both
// with LP22's epochs switched on.
#pragma once

#include "pacemaker/view_sync_kit.h"

namespace lumiere::pacemaker {

class FeverPacemaker : public GridPacemaker {
 public:
  /// `gamma` is the per-view budget; zero means default_gamma(tenure).
  /// `tenure` is the number of consecutive views per leader (>= 2); 2 is
  /// the paper's protocol.
  FeverPacemaker(const ProtocolParams& params, ProcessId self, crypto::Signer signer,
                 PacemakerWiring wiring, Duration gamma, std::uint32_t tenure)
      : FeverPacemaker(params, self, signer, std::move(wiring), gamma, tenure, 0) {}

  void on_message(ProcessId from, const MessagePtr& msg) override;
  void on_qc(const consensus::QuorumCert& qc) override;
  [[nodiscard]] const char* name() const override { return "fever"; }
  [[nodiscard]] View lowest_held_view() const override {
    return vc_fanout_.lowest(view_shares_.lowest(GridPacemaker::lowest_held_view()));
  }
  /// VCs this processor formed as a leader.
  [[nodiscard]] std::uint64_t vcs_formed() const noexcept { return vc_fanout_.formed(); }

  /// The default Gamma for a given tenure (see header comment).
  static Duration default_gamma(const ProtocolParams& params, std::uint32_t tenure);

 protected:
  /// Fever with LP22's epoch synchronization every `views_per_epoch` views.
  FeverPacemaker(const ProtocolParams& params, ProcessId self, crypto::Signer signer,
                 PacemakerWiring wiring, Duration gamma, std::uint32_t tenure,
                 std::int64_t views_per_epoch);

  void enter_clock_view(View w) override;
  void prune_below(View v) override {
    GridPacemaker::prune_below(v);
    view_shares_.prune_below(v);
    vc_fanout_.prune_below(v);
  }

 private:
  /// VCs exist only for initial views that are not epoch views.
  [[nodiscard]] bool has_vc(View v) const noexcept { return is_initial(v) && !is_epoch_view(v); }
  void handle_view_share(ProcessId from, const ViewMsg& msg);
  void handle_vc(const VcMsg& msg);

  ShareCollector view_shares_;
  VcFanout vc_fanout_;
};

}  // namespace lumiere::pacemaker
