#include "pacemaker/round_robin.h"

namespace lumiere::pacemaker {

RoundRobinPacemaker::RoundRobinPacemaker(const ProtocolParams& params, ProcessId self,
                                         crypto::Signer signer, PacemakerWiring wiring,
                                         Options options)
    : Pacemaker(params, self, signer, std::move(wiring)),
      options_(options),
      schedule_(params.n, 1),
      wishes_(auth(), &wish_statement, params.quorum()) {
  LUMIERE_ASSERT(options_.base_timeout > Duration::zero());
}

void RoundRobinPacemaker::start() { enter_view(0, /*via_timeout=*/false); }

void RoundRobinPacemaker::enter_view(View v, bool via_timeout) {
  if (v <= view_) return;
  view_ = v;
  // Wishes and echoes only ever concern views above the current one.
  wishes_.prune_below(v);
  wished_.erase(wished_.begin(), wished_.lower_bound(v));
  consecutive_timeouts_ = via_timeout ? consecutive_timeouts_ + 1 : 0;
  notify_enter_view(v);
  arm_timer();
}

void RoundRobinPacemaker::arm_timer() {
  timer_.cancel();
  const std::uint32_t exp =
      std::min(consecutive_timeouts_, options_.max_backoff_exponent);
  const Duration timeout = options_.base_timeout * (std::int64_t{1} << exp);
  timer_ = sim().schedule_after(timeout, [this] { on_timeout(); });
}

void RoundRobinPacemaker::on_timeout() { send_wish(view_ + 1); }

void RoundRobinPacemaker::send_wish(View v) {
  if (wished_.contains(v)) return;
  wished_.insert(v);
  note_sync_started(v);
  broadcast(std::make_shared<WishMsg>(v, crypto::threshold_share(signer_, wish_statement(v))));
}

void RoundRobinPacemaker::handle_wish(const WishMsg& msg) {
  const View v = msg.view();
  if (v <= view_) return;
  const std::uint32_t count = wishes_.add(v, msg.share());
  // f+1 wishes prove at least one honest processor timed out: join in
  // (amplification keeps the protocol live when timeouts are staggered).
  if (count == params_.small_quorum()) send_wish(v);
  if (count == params_.quorum()) enter_view(v, /*via_timeout=*/true);
}

void RoundRobinPacemaker::on_message(ProcessId /*from*/, const MessagePtr& msg) {
  if (msg->type_id() == kWishMsg) handle_wish(static_cast<const WishMsg&>(*msg));
}

void RoundRobinPacemaker::on_qc(const consensus::QuorumCert& qc) {
  // Responsive advance: a QC for view v completes v; move to v+1.
  if (qc.view() + 1 > view_) enter_view(qc.view() + 1, /*via_timeout=*/false);
}

}  // namespace lumiere::pacemaker
