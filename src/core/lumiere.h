// Lumiere (Section 4 / Algorithm 1): the paper's contribution.
//
// Epochs of 10n views; leader pairs ordered by per-segment permutations
// with the last leader of each epoch bridging into the next
// (ReversePermutationSchedule). Within epochs, Fever-style light
// synchronization runs: initial (even) views are entered at lc == c_v and
// announced to the leader; f+1 view messages aggregate into a VC; QCs,
// VCs and certificates bump lagging clocks forward. Epoch boundaries are
// guarded by the success criterion: once 2f+1 leaders each produced all
// 10 of their QCs in an epoch, processors treat the next epoch view as a
// standard initial view and the Theta(n^2) epoch synchronization is
// skipped; otherwise they pause at the boundary, wait Delta, and launch
// the heavy exchange (epoch-view messages; f+1 observed = TC, 2f+1 = EC).
//
// Honest leaders only produce a QC within Gamma/2 - 2*Delta of sending
// the VC for the view (or the QC for the previous view) — the discipline
// that makes every post-GST honest QC *shrink* the (f+1)-st honest gap
// (Lemma 5.12). Gamma = 2(x+2)*Delta.
//
// Implementation notes (documented deviations / disambiguations):
//  * "Upon first seeing lc == c_v and <condition>" triggers are treated
//    as edge-triggered on the conjunction becoming true (e.g. the
//    success flag may flip while parked at the boundary).
//  * A processor sends its view-v message when it enters initial view v,
//    whatever the entry route (clock arrival, VC, QC bump landing,
//    success path, EC) — the uniform policy costs at most one O(kappa)
//    message per processor per initial view and guarantees the leader
//    can always form a VC (needed for the QC-production deadline anchor).
//  * Line 32 sends the VC "to all"; here it goes only to the processes
//    lead(v) has not heard a view-v message from, plus lead(v) itself
//    while its view is below v (pacemaker::VcFanout). A process acts on
//    a VC only if v > view(p) (line 36), and a view-v message shows
//    view(p) >= v since views never decrease, so the skipped copies
//    change nothing. They leave at the end of the instant the VC formed,
//    so every view-v message delivered at that instant counts; the
//    deadline anchor and the proposal gate keep the formation time. Once
//    the cluster is synchronized no VC copy is sent at all.
//  * The leader defers its proposal for an initial view until it has
//    sent the VC for that view, so the deadline anchor always exists
//    when votes complete (PacemakerHooks::may_propose).
//  * A non-initial view's anchor is the leader's own QC for the view
//    before, and that QC travels in the leader's proposal for the view
//    as its justify instead of a broadcast of its own: processes enter
//    the view on the proposal (line 44 fires on its justify) and send no
//    NewView to a leader that has proposed (consensus/chained_core.h).
//  * Lines 44-48 act on a QC for view w only while lc(p) < c_{w+1}. Here
//    a QC for w also moves a process into a non-initial w+1 when its
//    clock has passed c_{w+1} but not c_{w+2}: no clock entry exists for
//    a non-initial view, so a leader whose clock ran ahead (a Byzantine
//    leader handed it the QC for w-1 alone) would otherwise never propose
//    its second view, and every such epoch would miss its success
//    criterion. The clock is not moved, so the view ends at c_{w+2} as
//    it would have.
//  * Catch-up view messages (Algorithm 1 lines 18/38/46) are capped at
//    the most recent 10n views; older VCs could no longer affect any of
//    the paper's within-epoch arguments.
//  * TCs and ECs are local observations of f+1 / 2f+1 broadcast
//    epoch-view messages (as in Algorithm 1), not separate certificate
//    messages.
//  * Both of the paper's guards are always on, not options: the
//    Delta-wait before the epoch-view message (Algorithm 1 lines 11-12)
//    and the QC-production deadline (Lemma 5.12). No regime measured so
//    far shows either one's benefit: with either off, every ablation run
//    (eventual and worst-case, n = 7) sent the same 30 epoch-view
//    messages and moved latency by at most 10 ms. The one regime where
//    the deadline shows is its cost: under worst-permitted delay at
//    x = 3, chained HotStuff's NewView hop does not fit the Gamma/2 -
//    2 Delta = x Delta window, and no QC lands in adjacent views.
#pragma once

#include <map>
#include <optional>
#include <set>

#include "core/epoch_math.h"
#include "core/reverse_permutation_schedule.h"
#include "core/success_tracker.h"

namespace lumiere::core {

class LumierePacemaker final : public pacemaker::Pacemaker {
 public:
  struct Options {
    /// Per-view budget Gamma; zero means default_gamma(params).
    Duration gamma = Duration::zero();
    /// Leader-schedule seed (shared by the whole cluster).
    std::uint64_t schedule_seed = 0;
  };

  /// The paper's per-view budget: Gamma = 2(x+2) * Delta.
  [[nodiscard]] static Duration default_gamma(const ProtocolParams& params) {
    return params.delta_cap * (2 * (params.x + 2));
  }

  LumierePacemaker(const ProtocolParams& params, ProcessId self, crypto::Signer signer,
                   pacemaker::PacemakerWiring wiring, Options options);

  void start() override;
  void on_message(ProcessId from, const MessagePtr& msg) override;
  void on_qc(const consensus::QuorumCert& qc) override;
  void on_local_qc_formed(const consensus::QuorumCert& qc) override;
  [[nodiscard]] ProcessId leader_of(View v) const override { return schedule_.leader_of(v); }
  [[nodiscard]] bool may_form_qc(View v) const override;
  [[nodiscard]] bool may_propose(View v) const override;
  [[nodiscard]] View current_view() const override { return view_; }
  [[nodiscard]] const char* name() const override { return "lumiere"; }
  [[nodiscard]] View lowest_held_view() const override;

  [[nodiscard]] Epoch current_epoch() const noexcept { return epoch_; }
  [[nodiscard]] Duration gamma() const noexcept { return math_.gamma(); }
  [[nodiscard]] const EpochMath& math() const noexcept { return math_; }
  [[nodiscard]] const SuccessTracker& success_tracker() const noexcept { return success_; }
  /// True while parked (clock paused) at an epoch boundary.
  [[nodiscard]] bool parked() const noexcept { return parked_view_.has_value(); }
  /// Number of epoch-view messages this processor has broadcast (heavy
  /// synchronizations it participated in) — the §3.5 savings metric.
  [[nodiscard]] std::uint64_t epoch_msgs_sent() const noexcept { return epoch_msgs_sent_; }
  /// VCs this processor formed as a leader.
  [[nodiscard]] std::uint64_t vcs_formed() const noexcept { return vc_fanout_.formed(); }

 private:
  // -- clock-driven entry ---------------------------------------------
  void process_clock();
  void handle_epoch_boundary(View w);
  void park_at(View w);
  void unpark();
  void enter_initial(View w);

  // -- state updates ---------------------------------------------------
  void set_view(View v, Epoch e);
  void send_view_msg(View v);
  void send_epoch_msg(View v);
  void catch_up_view_msgs(View below);

  // -- message handlers --------------------------------------------------
  void handle_view_share(ProcessId from, const pacemaker::ViewMsg& msg);
  void handle_vc(const pacemaker::VcMsg& msg);
  void handle_epoch_share(const pacemaker::EpochViewMsg& msg);
  void handle_tc(View v);  ///< f+1 epoch-view messages observed
  void handle_ec(View v);  ///< 2f+1 epoch-view messages observed
  void on_success_flip(Epoch e);

  ReversePermutationSchedule schedule_;
  EpochMath math_;
  SuccessTracker success_;
  Duration qc_deadline_budget_;  // Gamma/2 - 2*Delta

  View view_ = -1;
  Epoch epoch_ = -1;
  sim::AlarmId boundary_alarm_ = 0;

  // Parking state at an epoch boundary (Algorithm 1 lines 9-11).
  std::optional<View> parked_view_;
  sim::EventHandle delta_wait_;

  // View-message dissemination and VC formation. view_msg_sent_,
  // view_shares_ and vc_fanout_ hold only views >= view_ (set_view drops
  // the rest); an aggregator also goes once its view's VC forms.
  std::set<View> view_msg_sent_;
  pacemaker::ShareCollector view_shares_;
  pacemaker::VcFanout vc_fanout_;
  std::map<View, TimePoint> vc_sent_at_;

  // Epoch-view message dissemination. TC and EC are the f+1-st and
  // 2f+1-st share of an epoch view (count crossings); the collector never
  // aggregates, so it counts up to n.
  std::set<View> epoch_msg_sent_;
  std::uint64_t epoch_msgs_sent_ = 0;
  pacemaker::ShareCollector epoch_shares_;

  // Deadline anchors for QCs this node produces as leader.
  std::map<View, TimePoint> local_qc_sent_at_;
};

}  // namespace lumiere::core
