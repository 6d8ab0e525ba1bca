#include "pacemaker/view_sync_kit.h"

namespace lumiere::pacemaker {

std::uint32_t ShareCollector::add(View v, const crypto::PartialSig& share) {
  auto it = aggs_.lower_bound(v);
  if (it == aggs_.end() || it->first != v) {
    it = aggs_.try_emplace(it, v, auth_, statement_(v), threshold_);
  }
  crypto::QuorumAggregator& agg = it->second;
  if (agg.complete() || !agg.add(share)) {
    // Forged shares for fresh views must not leave aggregators behind.
    if (agg.count() == 0) aggs_.erase(it);
    return 0;
  }
  return agg.count();
}

void VcFanout::heard(View v, ProcessId from) {
  heard_.try_emplace(v, owner_.params().n).first->second.add(from);
}

void VcFanout::send(View v, MessagePtr vc) {
  ++formed_;
  wiring_.sim->schedule_after(Duration::zero(),
                              [this, v, vc = std::move(vc)] { fan_out(v, vc); });
}

void VcFanout::fan_out(View v, const MessagePtr& vc) {
  const auto it = heard_.find(v);
  const ProcessId self = owner_.self();
  for (ProcessId to = 0; to < owner_.params().n; ++to) {
    const bool moves = to == self ? owner_.current_view() < v
                                  : it == heard_.end() || !it->second.contains(to);
    if (moves) wiring_.send(to, vc);
  }
}

void GammaGrid::arm_next(sim::LocalClock& clock, sim::AlarmId& alarm, View stride,
                         sim::LocalClock::AlarmFn fire) const {
  clock.cancel_alarm(alarm);
  View next = view_at(clock.reading()) + 1;
  if (next % stride != 0) next += stride - next % stride;
  alarm = clock.set_alarm(view_time(next), std::move(fire));
}

GridPacemaker::GridPacemaker(const ProtocolParams& params, ProcessId self, crypto::Signer signer,
                             PacemakerWiring wiring, Duration gamma, std::uint32_t tenure,
                             std::int64_t views_per_epoch)
    : Pacemaker(params, self, signer, std::move(wiring)),
      grid_(gamma),
      tenure_(tenure),
      views_per_epoch_(views_per_epoch),
      schedule_(params.n, tenure),
      epoch_shares_(auth(), &epoch_msg_statement, params.quorum()) {}

void GridPacemaker::process_clock() {
  const Duration r = clock().reading();
  const View w = grid_.view_at(r);
  if (grid_.at_boundary(r) && is_initial(w) && w > view_) {
    if (is_epoch_view(w)) {
      begin_epoch_sync(w);
    } else {
      enter_clock_view(w);
    }
  }
  grid_.arm_next(clock(), boundary_alarm_, tenure_, [this] { process_clock(); });
}

void GridPacemaker::enter_view(View v, bool announce) {
  if (v <= view_) return;
  view_ = v;
  prune_below(v);
  notify_enter_view(v, announce);
}

void GridPacemaker::begin_epoch_sync(View epoch_view) {
  // "At this point, it pauses its local clock and sends an epoch view v
  // message to all processors."
  clock().pause();
  if (epoch_view <= epoch_msg_sent_) return;
  epoch_msg_sent_ = epoch_view;
  note_sync_started(epoch_view);
  broadcast(std::make_shared<EpochViewMsg>(
      epoch_view, crypto::threshold_share(signer_, epoch_msg_statement(epoch_view))));
}

void GridPacemaker::handle_epoch_share(const EpochViewMsg& msg) {
  // "Upon receiving epoch view v messages from 2f+1 distinct processors
  // while in a view < v, any honest processor combines these into an EC
  // and sends the EC to all processors."
  const View v = msg.view();
  if (!is_epoch_view(v) || v <= view_) return;
  if (epoch_shares_.add(v, msg.share()) == params_.quorum()) {
    broadcast(std::make_shared<EcMsg>(SyncCert(v, epoch_shares_.aggregate(v))));
  }
}

void GridPacemaker::handle_ec(const EcMsg& msg) {
  const SyncCert& cert = msg.cert();
  const View v = cert.view();
  if (!is_epoch_view(v) || v <= view_) return;
  if (!cert.verify(auth(), params_.quorum(), &epoch_msg_statement)) return;
  // "Upon seeing an EC for view v while in any lower view, any honest
  // processor sets lc(p) := c_v, unpauses its local clock if paused, and
  // then enters epoch e and view v."
  clock().bump_to(view_time(v));
  clock().unpause();
  enter_view(v);
  process_clock();  // re-arm the boundary alarm from the new clock value
}

void GridPacemaker::on_message(ProcessId /*from*/, const MessagePtr& msg) {
  switch (msg->type_id()) {
    case kEpochViewMsg:
      handle_epoch_share(static_cast<const EpochViewMsg&>(*msg));
      break;
    case kEcMsg:
      handle_ec(static_cast<const EcMsg&>(*msg));
      break;
    default:
      break;
  }
}

}  // namespace lumiere::pacemaker
