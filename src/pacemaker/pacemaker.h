// The Byzantine View Synchronization (BVS) interface.
//
// A Pacemaker decides *when each processor enters each view* (the view
// synchronization task of Section 2):
//
//  (1) a processor's view never decreases, and
//  (2) after GST there are infinitely many views with honest leaders in
//      which all honest processors overlap long enough to complete the
//      view.
//
// Implementations in this repository, and what each takes from the
// view-sync kit (pacemaker/view_sync_kit: ShareCollector, GammaGrid,
// GridPacemaker):
//   pacemaker/round_robin   exponential-backoff all-to-all (HotStuff-folk);
//                           ShareCollector for wishes
//   pacemaker/cogsworth     leader-relay synchronization [15];
//                           ShareCollector for wishes
//   pacemaker/naor_keidar   randomized relay variant (NK20) [16]; Cogsworth
//                           with a seeded schedule
//   pacemaker/lp22          epoch-based quadratic-optimal [12]; GridPacemaker
//                           (epochs of f+1 views) plus the QC fast path
//   pacemaker/raresync      epoch-based, not responsive [7]; LP22 without
//                           the QC fast path
//   pacemaker/fever         clock-bumping, non-standard clock model [13];
//                           GridPacemaker without epochs plus the VC path
//   core/basic_lumiere      LP22 epochs + Fever bumping (Section 3.4); Fever
//                           with epochs of 2(f+1) views
//   core/lumiere            full Lumiere, Algorithm 1 (the paper); two
//                           ShareCollectors, EpochMath on GammaGrid
#pragma once

#include <functional>
#include <memory>

#include "common/params.h"
#include "common/types.h"
#include "consensus/quorum_cert.h"
#include "crypto/authenticator.h"
#include "ser/message.h"
#include "sim/local_clock.h"
#include "sim/simulator.h"

namespace lumiere::consensus {
class NewViewMsg;
}  // namespace lumiere::consensus

namespace lumiere::pacemaker {

/// Everything a pacemaker needs from its hosting Node.
struct PacemakerWiring {
  sim::Simulator* sim = nullptr;
  sim::LocalClock* clock = nullptr;
  crypto::AuthView auth;  ///< scheme + per-node verification memo
  /// Point-to-point send of a pacemaker message.
  std::function<void(ProcessId to, MessagePtr msg)> send;
  /// Broadcast to all n processors (including self, per the paper).
  std::function<void(MessagePtr msg)> broadcast;
  /// Reports a view entry to the node (which forwards to the consensus
  /// core). Must be called with non-decreasing views. With `announce` the
  /// entry also sends lead(v) this process's view-v share (a ViewMsg, the
  /// view message of Lumiere's and Fever's light sync): once the core and
  /// the entry's observers have run, the node reports sync_started(v),
  /// signs the share and sends it, riding the NewView(v) the core sent
  /// lead(v) during the entry if there was one (runtime::Node).
  std::function<void(View v, bool announce)> enter_view;
  /// Pokes the consensus core to retry a proposal whose
  /// PacemakerHooks::may_propose gate has lifted (may be null when the
  /// core never defers).
  std::function<void(View v)> propose_poke;
  /// Observability: the pacemaker has begun spending resources (wish /
  /// view-message / epoch-sync sends) to leave its current view, aiming
  /// for `target`. Null when the sync tracer is off. Implementations
  /// call note_sync_started() right before the episode's first send —
  /// never for passive view entries (QC ride-alongs cost nothing).
  std::function<void(View target)> sync_started;
};

class Pacemaker {
 public:
  Pacemaker(const ProtocolParams& params, ProcessId self, crypto::Signer signer,
            PacemakerWiring wiring)
      : params_(params), self_(self), signer_(signer), wiring_(std::move(wiring)) {
    params_.validate();
    LUMIERE_ASSERT(wiring_.sim != nullptr && wiring_.clock != nullptr && wiring_.auth);
  }
  virtual ~Pacemaker() = default;

  Pacemaker(const Pacemaker&) = delete;
  Pacemaker& operator=(const Pacemaker&) = delete;

  /// Begins protocol execution (the processor has joined with lc = 0).
  virtual void start() = 0;

  /// A pacemaker-class message arrived (possibly from a Byzantine sender).
  virtual void on_message(ProcessId from, const MessagePtr& msg) = 0;

  /// A NewView arrived and the core has taken it. The view share riding
  /// it (PacemakerWiring::enter_view) is its sender's ViewMsg for the
  /// NewView's view, and goes to on_message as one.
  void on_new_view(ProcessId from, const consensus::NewViewMsg& msg);

  /// Any valid QC was observed by the underlying protocol on this node.
  virtual void on_qc(const consensus::QuorumCert& qc) = 0;

  /// This node, acting as leader, produced a QC (anchor for Lumiere's
  /// production deadline). Default: ignore.
  virtual void on_local_qc_formed(const consensus::QuorumCert& qc) { (void)qc; }

  /// The leader schedule lead(v).
  [[nodiscard]] virtual ProcessId leader_of(View v) const = 0;

  /// Lumiere's QC-production deadline (Section 4); default permissive.
  [[nodiscard]] virtual bool may_form_qc(View v) const {
    (void)v;
    return true;
  }

  /// Lumiere's proposal gate (see PacemakerHooks::may_propose).
  [[nodiscard]] virtual bool may_propose(View v) const {
    (void)v;
    return true;
  }

  [[nodiscard]] virtual View current_view() const = 0;
  [[nodiscard]] virtual const char* name() const = 0;

  /// The lowest view this pacemaker still holds per-view state for
  /// (aggregators, send records, deadline anchors), or current_view()
  /// when it holds none below that.
  [[nodiscard]] virtual View lowest_held_view() const { return current_view(); }

  [[nodiscard]] const ProtocolParams& params() const noexcept { return params_; }
  [[nodiscard]] ProcessId self() const noexcept { return self_; }

 protected:
  [[nodiscard]] sim::Simulator& sim() const noexcept { return *wiring_.sim; }
  [[nodiscard]] sim::LocalClock& clock() const noexcept { return *wiring_.clock; }
  [[nodiscard]] crypto::AuthView auth() const noexcept { return wiring_.auth; }
  [[nodiscard]] const crypto::Signer& signer() const noexcept { return signer_; }

  void send_to(ProcessId to, MessagePtr msg) const { wiring_.send(to, std::move(msg)); }
  void broadcast(MessagePtr msg) const { wiring_.broadcast(std::move(msg)); }
  /// Enters v; with `announce`, also sends lead(v) the view-v share
  /// (PacemakerWiring::enter_view).
  void notify_enter_view(View v, bool announce = false) const {
    wiring_.enter_view(v, announce);
  }
  void poke_propose(View v) const {
    if (wiring_.propose_poke) wiring_.propose_poke(v);
  }
  void note_sync_started(View target) const {
    if (wiring_.sync_started) wiring_.sync_started(target);
  }

  ProtocolParams params_;
  ProcessId self_;
  crypto::Signer signer_;
  PacemakerWiring wiring_;
};

}  // namespace lumiere::pacemaker
