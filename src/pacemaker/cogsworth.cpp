#include "pacemaker/cogsworth.h"

namespace lumiere::pacemaker {

CogsworthPacemaker::CogsworthPacemaker(const ProtocolParams& params, ProcessId self,
                                       crypto::Signer signer, PacemakerWiring wiring,
                                       Options options,
                                       std::unique_ptr<LeaderSchedule> schedule)
    : Pacemaker(params, self, signer, std::move(wiring)),
      options_(options),
      schedule_(std::move(schedule)),
      wishes_(auth(), &wish_statement, params.small_quorum()) {
  LUMIERE_ASSERT(options_.view_timeout > Duration::zero());
  LUMIERE_ASSERT(options_.relay_timeout > Duration::zero());
  LUMIERE_ASSERT(schedule_ != nullptr);
}

void CogsworthPacemaker::start() { enter_view(0); }

void CogsworthPacemaker::enter_view(View v) {
  if (v <= view_) return;
  view_ = v;
  wishes_.prune_below(v);
  // Any in-flight wishing for an older target is now moot.
  if (wish_target_ <= v) {
    wish_target_ = -1;
    relay_timer_.cancel();
  }
  notify_enter_view(v);
  arm_view_timer();
}

void CogsworthPacemaker::arm_view_timer() {
  view_timer_.cancel();
  view_timer_ = sim().schedule_after(options_.view_timeout, [this] { begin_wishing(view_ + 1); });
}

void CogsworthPacemaker::begin_wishing(View target) {
  if (target <= view_) return;
  note_sync_started(target);
  wish_target_ = target;
  relay_index_ = 0;
  relay_wish();
}

void CogsworthPacemaker::relay_wish() {
  if (wish_target_ <= view_) return;  // reached it meanwhile
  const View target = wish_target_;
  // k-th relay: the leader of view target + k. Under round-robin this
  // walks distinct processors; under a random schedule it hits an honest
  // relay in expected O(1) attempts.
  const ProcessId relay = schedule_->leader_of(target + relay_index_);
  send_to(relay, std::make_shared<WishMsg>(
                     target, crypto::threshold_share(signer_, wish_statement(target))));
  ++relay_index_;
  relay_timer_.cancel();
  relay_timer_ = sim().schedule_after(options_.relay_timeout, [this] { relay_wish(); });
}

void CogsworthPacemaker::handle_wish(const WishMsg& msg) {
  const View v = msg.view();
  // Already past v (or already certified, which closes v in the
  // collector): answer stragglers cheaply by doing nothing — the QC /
  // certificate that moved us is already circulating.
  if (v <= view_) return;
  if (wishes_.add(v, msg.share()) == params_.small_quorum()) {
    broadcast(std::make_shared<WishCertMsg>(SyncCert(v, wishes_.aggregate(v))));
  }
}

void CogsworthPacemaker::handle_cert(const WishCertMsg& msg) {
  const SyncCert& cert = msg.cert();
  if (cert.view() <= view_) return;
  if (!cert.verify(auth(), params_.small_quorum(), &wish_statement)) return;
  enter_view(cert.view());
}

void CogsworthPacemaker::on_message(ProcessId /*from*/, const MessagePtr& msg) {
  switch (msg->type_id()) {
    case kWishMsg:
      handle_wish(static_cast<const WishMsg&>(*msg));
      break;
    case kWishCertMsg:
      handle_cert(static_cast<const WishCertMsg&>(*msg));
      break;
    default:
      break;
  }
}

void CogsworthPacemaker::on_qc(const consensus::QuorumCert& qc) {
  if (qc.view() + 1 > view_) enter_view(qc.view() + 1);
}

}  // namespace lumiere::pacemaker
