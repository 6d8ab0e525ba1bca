#include "pacemaker/fever.h"

namespace lumiere::pacemaker {

Duration FeverPacemaker::default_gamma(const ProtocolParams& params, std::uint32_t tenure) {
  LUMIERE_ASSERT(tenure >= 2);
  // Gamma >= (2 + tenure * x) * Delta / (tenure - 1), rounded up to keep
  // the liveness budget intact with integer ticks.
  const std::int64_t numerator =
      (2 + static_cast<std::int64_t>(tenure) * params.x) * params.delta_cap.ticks();
  const std::int64_t denominator = tenure - 1;
  return Duration((numerator + denominator - 1) / denominator);
}

FeverPacemaker::FeverPacemaker(const ProtocolParams& params, ProcessId self,
                               crypto::Signer signer, PacemakerWiring wiring, Duration gamma,
                               std::uint32_t tenure, std::int64_t views_per_epoch)
    : GridPacemaker(params, self, signer, std::move(wiring),
                    gamma > Duration::zero() ? gamma : default_gamma(params, tenure), tenure,
                    views_per_epoch),
      view_shares_(auth(), &view_msg_statement, params.small_quorum()),
      vc_fanout_(*this, wiring_) {
  LUMIERE_ASSERT_MSG(tenure >= 2, "Fever needs at least one grace view per tenure");
}

void FeverPacemaker::enter_clock_view(View w) {
  // "If v is initial, then p enters view v when lc(p) = c_v" — which can
  // happen by real-time advance or by a bump landing exactly on c_v —
  // and sends a view v message to lead(v).
  enter_view(w);
  note_sync_started(w);
  send_to(leader_of(w),
          std::make_shared<ViewMsg>(w, crypto::threshold_share(signer_, view_msg_statement(w))));
}

void FeverPacemaker::handle_view_share(ProcessId from, const ViewMsg& msg) {
  // f+1 view-v messages form lead(v)'s VC. Each sender is in view >= v
  // and ignores a VC for v, so the copies go only to the processes not
  // heard from by the end of this instant (and to this one while it
  // lags below v).
  const View v = msg.view();
  if (!has_vc(v) || leader_of(v) != self_ || v < view_) return;
  vc_fanout_.heard(v, from);
  if (view_shares_.add(v, msg.share()) == params_.small_quorum()) {
    vc_fanout_.send(v, std::make_shared<VcMsg>(SyncCert(v, view_shares_.aggregate(v))));
  }
}

void FeverPacemaker::handle_vc(const VcMsg& msg) {
  const SyncCert& cert = msg.cert();
  const View v = cert.view();
  if (!has_vc(v) || v <= view_) return;
  if (!cert.verify(auth(), params_.small_quorum(), &view_msg_statement)) return;
  // "receives ... a VC for view v, and if lc(p) < c_v, then p
  // instantaneously bumps their local clock to c_v" — the exact landing
  // then triggers the initial-view entry rule.
  if (clock().reading() < view_time(v)) {
    clock().bump_to(view_time(v));
    process_clock();
  }
}

void FeverPacemaker::on_message(ProcessId from, const MessagePtr& msg) {
  switch (msg->type_id()) {
    case kViewMsg:
      handle_view_share(from, static_cast<const ViewMsg&>(*msg));
      break;
    case kVcMsg:
      handle_vc(static_cast<const VcMsg&>(*msg));
      break;
    default:
      GridPacemaker::on_message(from, msg);
      break;
  }
}

void FeverPacemaker::on_qc(const consensus::QuorumCert& qc) {
  // "receives a QC for view v-1 ... and if lc(p) < c_v, then p
  // instantaneously bumps their local clock to c_v" (bump_to ignores
  // values at or below the reading). When v is an epoch view the landing
  // starts the heavy sync; when v is initial the landing enters it.
  const View next = qc.view() + 1;
  clock().bump_to(view_time(next));
  // "If v is not initial, then p enters view v if it is presently in a
  // view < v and it receives a QC for view v-1."
  if (!is_initial(next)) enter_view(next);
  process_clock();
}

}  // namespace lumiere::pacemaker
