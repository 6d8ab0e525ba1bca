#include "core/lumiere.h"

namespace lumiere::core {

using pacemaker::EpochViewMsg;
using pacemaker::SyncCert;
using pacemaker::VcMsg;
using pacemaker::ViewMsg;

LumierePacemaker::LumierePacemaker(const ProtocolParams& params, ProcessId self,
                                   crypto::Signer signer, pacemaker::PacemakerWiring wiring,
                                   Options options)
    : Pacemaker(params, self, signer, std::move(wiring)),
      schedule_(params.n, options.schedule_seed),
      math_(params.n, options.gamma > Duration::zero() ? options.gamma : default_gamma(params)),
      success_(
          params, &math_, [this](View v) { return schedule_.leader_of(v); },
          [this](Epoch e) { on_success_flip(e); }),
      qc_deadline_budget_(math_.gamma() / 2 - params.delta_cap * 2),
      view_shares_(auth(), &pacemaker::view_msg_statement, params.small_quorum()),
      vc_fanout_(*this, wiring_),
      epoch_shares_(auth(), &pacemaker::epoch_msg_statement, params.n) {
  LUMIERE_ASSERT_MSG(qc_deadline_budget_ > Duration::zero(),
                     "Gamma too small: Gamma/2 - 2*Delta must be positive");
}

void LumierePacemaker::start() { process_clock(); }

// ---------------------------------------------------------------------------
// Clock-driven entry
// ---------------------------------------------------------------------------

void LumierePacemaker::process_clock() {
  const Duration r = clock().reading();
  const View w = math_.view_at(r);
  if (math_.at_boundary(r) && EpochMath::is_initial(w) && w > view_) {
    if (math_.is_epoch_view(w)) {
      handle_epoch_boundary(w);
    } else if (epoch_ == math_.epoch_of(w)) {
      // Algorithm 1 line 28: "Upon lc(p) == c_v for v initial and
      // epoch(p) == E(v)".
      enter_initial(w);
    }
  }
  // Only initial (even) views are clock-entered.
  math_.arm_next(clock(), boundary_alarm_, 2, [this] { process_clock(); });
}

void LumierePacemaker::handle_epoch_boundary(View w) {
  const Epoch prev = math_.epoch_of(w) - 1;
  if (success_.success(prev)) {
    // Line 13: the previous epoch met the success criterion — treat V(e)
    // as a standard initial view; no heavy synchronization.
    set_view(w, math_.epoch_of(w));
    send_view_msg(w);
  } else {
    // Line 9: park (pause) and, Delta later, launch the heavy exchange.
    park_at(w);
  }
}

void LumierePacemaker::park_at(View w) {
  if (parked_view_ == w) return;
  parked_view_ = w;
  note_sync_started(w);
  clock().pause();
  delta_wait_.cancel();
  // Line 11: "If local clock is still paused time Delta after pausing,
  // send an epoch view v message to all processors." The wait absorbs
  // the race where QCs from the tail of the previous epoch are still in
  // flight (final complexity of Section 3.5).
  delta_wait_ = sim().schedule_after(params_.delta_cap, [this, w] {
    if (parked_view_ == w) send_epoch_msg(w);
  });
}

void LumierePacemaker::unpark() {
  if (!parked_view_) return;
  parked_view_.reset();
  delta_wait_.cancel();
  clock().unpause();
}

void LumierePacemaker::enter_initial(View w) {
  set_view(w, math_.epoch_of(w));
  send_view_msg(w);
}

// ---------------------------------------------------------------------------
// State updates
// ---------------------------------------------------------------------------

void LumierePacemaker::set_view(View v, Epoch e) {
  if (v <= view_) return;
  LUMIERE_ASSERT_MSG(e == math_.epoch_of(v), "Lemma 5.1 wiring: E(view) == epoch");
  const Epoch old_epoch = epoch_;
  view_ = v;
  epoch_ = e;
  if (e != old_epoch) {
    // Epoch changed: state keyed below the previous epoch can no longer
    // influence the protocol (certificates for it are stale).
    const View horizon = math_.epoch_first_view(e) - math_.views_per_epoch();
    vc_sent_at_.erase(vc_sent_at_.begin(), vc_sent_at_.lower_bound(horizon));
    local_qc_sent_at_.erase(local_qc_sent_at_.begin(), local_qc_sent_at_.lower_bound(horizon));
    epoch_shares_.prune_below(horizon);
    epoch_msg_sent_.erase(epoch_msg_sent_.begin(), epoch_msg_sent_.lower_bound(horizon));
  }
  // Every view message from here on is for a view >= v (catch-up starts
  // at view_), and shares below v are turned away, so the records below
  // v are never read again.
  view_msg_sent_.erase(view_msg_sent_.begin(), view_msg_sent_.lower_bound(v));
  view_shares_.prune_below(v);
  vc_fanout_.prune_below(v);
  notify_enter_view(v);
}

void LumierePacemaker::send_view_msg(View v) {
  if (!EpochMath::is_initial(v)) return;
  if (view_msg_sent_.contains(v)) return;
  view_msg_sent_.insert(v);
  note_sync_started(v);
  send_to(leader_of(v),
          std::make_shared<ViewMsg>(
              v, crypto::threshold_share(signer_, pacemaker::view_msg_statement(v))));
}

void LumierePacemaker::send_epoch_msg(View v) {
  if (!epoch_msg_sent_.insert(v).second) return;
  ++epoch_msgs_sent_;
  broadcast(std::make_shared<EpochViewMsg>(
      v, crypto::threshold_share(signer_, pacemaker::epoch_msg_statement(v))));
}

void LumierePacemaker::catch_up_view_msgs(View below) {
  // Lines 18 / 38 / 46: "For each initial view v' with
  // view(p) <= v' < v send a view v' message to lead(v') if not already
  // sent." Capped at one epoch's worth of views — see header.
  View lo = std::max<View>(view_, 0);
  if (below - lo > math_.views_per_epoch()) lo = below - math_.views_per_epoch();
  if (lo % 2 != 0) ++lo;
  for (View v = lo; v < below; v += 2) send_view_msg(v);
}

// ---------------------------------------------------------------------------
// Message handlers
// ---------------------------------------------------------------------------

void LumierePacemaker::handle_view_share(ProcessId from, const ViewMsg& msg) {
  const View v = msg.view();
  // Line 32: "If p == lead(v) for initial view v >= view(p): upon first
  // seeing view v messages from f+1 distinct processors: form a VC for
  // view v and send to all." Its sender is in view >= v, so the VC
  // cannot move it (line 36); the fan-out skips it.
  if (!EpochMath::is_initial(v) || leader_of(v) != self_ || v < view_) return;
  vc_fanout_.heard(v, from);
  if (vc_sent_at_.contains(v)) return;
  if (view_shares_.add(v, msg.share()) != params_.small_quorum()) return;
  vc_sent_at_.emplace(v, sim().now());
  auto vc = std::make_shared<VcMsg>(SyncCert(v, view_shares_.aggregate(v)));
  // vc_sent_at_ now turns away every later view-v share; the aggregator
  // has done its job.
  view_shares_.erase(v);
  // The copies leave at the end of this instant, to every process not
  // heard from by then (and to this one while it lags below v).
  vc_fanout_.send(v, std::move(vc));
  // The QC-production deadline for v is now anchored; the proposal gate
  // (may_propose) is open.
  poke_propose(v);
}

void LumierePacemaker::handle_vc(const VcMsg& msg) {
  const SyncCert& cert = msg.cert();
  const View v = cert.view();
  // Line 36: "Upon first seeing a VC for initial view v > view(p)".
  if (!EpochMath::is_initial(v) || v <= view_) return;
  if (!cert.verify(auth(), params_.small_quorum(), &pacemaker::view_msg_statement)) return;
  // A VC for a view above ours releases an epoch-boundary pause
  // (the parked view is <= v here since view(p) < v).
  unpark();
  if (clock().reading() < math_.view_time(v)) {
    catch_up_view_msgs(v);                  // line 38
    clock().bump_to(math_.view_time(v));    // line 39
  }
  set_view(v, math_.epoch_of(v));           // line 40
  send_view_msg(v);
  process_clock();
}

void LumierePacemaker::handle_epoch_share(const EpochViewMsg& msg) {
  const View v = msg.view();
  // A stale epoch cannot matter.
  if (!math_.is_epoch_view(v) || math_.epoch_of(v) < epoch_) return;
  // TC = f+1 epoch-view messages observed; EC = 2f+1 (Section 4). Both
  // are local count crossings over the same broadcast stream.
  const std::uint32_t count = epoch_shares_.add(v, msg.share());
  if (count == params_.small_quorum()) handle_tc(v);
  if (count == params_.quorum()) handle_ec(v);
}

void LumierePacemaker::handle_tc(View v) {
  // Line 16: "Upon first seeing a TC for epoch view v with
  // E(v) >= epoch(p)".
  if (math_.epoch_of(v) < epoch_) return;
  if (clock().reading() < math_.view_time(v)) {
    catch_up_view_msgs(v);  // line 18
    // A TC for a view *strictly above* the parked boundary releases the
    // pause (line 10); a TC for the parked view itself does not.
    if (parked_view_ && *parked_view_ < v) unpark();
    clock().bump_to(math_.view_time(v));  // line 19
    if (view_ < v - 1) set_view(v - 1, math_.epoch_of(v) - 1);  // line 20
    send_epoch_msg(v);  // line 21
    process_clock();    // exact landing runs the epoch-boundary logic
  } else {
    send_epoch_msg(v);  // line 21 (helping stragglers reach an EC)
  }
}

void LumierePacemaker::handle_ec(View v) {
  // Line 23: "Upon first seeing an EC for epoch view v with
  // E(v) > epoch(p): set view(p) := v and epoch(p) := E(v)."
  if (math_.epoch_of(v) <= epoch_) return;
  unpark();  // an EC for a view >= the parked boundary releases the pause
  clock().bump_to(math_.view_time(v));
  set_view(v, math_.epoch_of(v));
  send_view_msg(v);
  process_clock();
}

void LumierePacemaker::on_success_flip(Epoch e) {
  // Line 13's trigger can fire after the clock reached the boundary: the
  // success flag flips while parked at c_{V(e+1)} — unpark and enter.
  if (parked_view_ && math_.epoch_of(*parked_view_) - 1 == e) {
    const View w = *parked_view_;
    unpark();
    set_view(w, math_.epoch_of(w));
    send_view_msg(w);
    process_clock();
  }
}

void LumierePacemaker::on_message(ProcessId from, const MessagePtr& msg) {
  switch (msg->type_id()) {
    case pacemaker::kViewMsg:
      handle_view_share(from, static_cast<const ViewMsg&>(*msg));
      break;
    case pacemaker::kVcMsg:
      handle_vc(static_cast<const VcMsg&>(*msg));
      break;
    case pacemaker::kEpochViewMsg:
      handle_epoch_share(static_cast<const EpochViewMsg&>(*msg));
      break;
    default:
      break;
  }
}

void LumierePacemaker::on_qc(const consensus::QuorumCert& qc) {
  const View w = qc.view();
  // Success-criterion bookkeeping; may synchronously flip success and
  // enter the next epoch (state re-read below is deliberate).
  success_.record_qc(w);

  // Line 44: "Upon first seeing a QC for view v >= view(p)".
  if (w < view_) return;
  const View next = w + 1;
  if (clock().reading() < math_.view_time(next)) {
    catch_up_view_msgs(w);  // line 46
    // A QC for a view >= the parked boundary releases the pause.
    if (parked_view_ && *parked_view_ <= w) unpark();
    clock().bump_to(math_.view_time(next));  // line 47
    if (!math_.is_epoch_view(next)) {
      set_view(next, math_.epoch_of(next));  // line 48
      send_view_msg(next);                   // no-op unless `next` is initial
    } else if (view_ < w) {
      set_view(w, math_.epoch_of(w));  // line 49
    }
    process_clock();  // if `next` is an epoch view we just landed on it
  } else if (!EpochMath::is_initial(next) && clock().reading() < math_.view_time(next + 1)) {
    // The clock ran past c_{next} before QC(w) formed (a leader that was
    // handed a QC alone runs ahead of the others). No clock entry exists
    // for a non-initial view, so without this lead(next) never proposes
    // the second view of its pair and the epoch misses its success.
    set_view(next, math_.epoch_of(next));
  }
}

void LumierePacemaker::on_local_qc_formed(const consensus::QuorumCert& qc) {
  local_qc_sent_at_.emplace(qc.view(), sim().now());
}

View LumierePacemaker::lowest_held_view() const {
  View lowest = epoch_shares_.lowest(vc_fanout_.lowest(view_shares_.lowest(view_)));
  for (const auto* held : {&view_msg_sent_, &epoch_msg_sent_}) {
    if (!held->empty()) lowest = std::min(lowest, *held->begin());
  }
  for (const auto* held : {&vc_sent_at_, &local_qc_sent_at_}) {
    if (!held->empty()) lowest = std::min(lowest, held->begin()->first);
  }
  return lowest;
}

bool LumierePacemaker::may_form_qc(View v) const {
  // "Honest leaders only produce a QC for view v if they can do it within
  // time Gamma/2 - 2*Delta of sending the VC for view v, or within that
  // time of sending the QC for the previous view if v is not initial."
  TimePoint anchor;
  if (EpochMath::is_initial(v)) {
    const auto it = vc_sent_at_.find(v);
    if (it == vc_sent_at_.end()) return false;
    anchor = it->second;
  } else {
    const auto it = local_qc_sent_at_.find(v - 1);
    if (it == local_qc_sent_at_.end()) return false;
    anchor = it->second;
  }
  return sim().now() - anchor <= qc_deadline_budget_;
}

bool LumierePacemaker::may_propose(View v) const {
  // Initial-view proposals wait for the VC (the deadline anchor);
  // non-initial views are anchored by our own previous QC, which exists
  // whenever we legitimately entered the view as its leader.
  if (EpochMath::is_initial(v)) return vc_sent_at_.contains(v);
  return true;
}

}  // namespace lumiere::core
