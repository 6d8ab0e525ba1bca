// The view-sync kit: the parts the pacemakers share.
//
//  * ShareCollector — per-view threshold-share aggregation (wishes,
//    view messages, epoch-view messages) for one statement.
//  * VcFanout       — Lumiere's and Fever's VC send rule: a leader's VC
//    goes only to the processes not yet in its view.
//  * GammaGrid      — the local-clock grid c_v = Gamma * v and its
//    boundary alarm.
//  * GridPacemaker  — a pacemaker whose views start on the Gamma grid,
//    with LP22's heavy epoch synchronization (epoch-view shares, EC) at
//    every epoch view. LP22, RareSync, Fever and Basic Lumiere are
//    parameterisations of it.
#pragma once

#include <algorithm>
#include <map>

#include "common/signer_set.h"
#include "crypto/authenticator.h"
#include "pacemaker/leader_schedule.h"
#include "pacemaker/messages.h"
#include "pacemaker/pacemaker.h"

namespace lumiere::pacemaker {

/// Collects threshold shares over statement(v) for each view v, with one
/// QuorumAggregator per view. A view whose aggregator reached the
/// threshold is closed: its certificate is out, so later shares for it
/// are turned away before verification.
class ShareCollector {
 public:
  ShareCollector(crypto::AuthView auth, crypto::Digest (*statement)(View),
                 std::uint32_t threshold)
      : auth_(auth), statement_(statement), threshold_(threshold) {}

  /// Adds a share for view v. Returns the view's count after the add, or
  /// 0 if the share was rejected (invalid, duplicate, or view closed). A
  /// rejected share leaves no aggregator behind. The count grows by one
  /// per accepted share, so `add(...) == k` holds exactly once per view.
  std::uint32_t add(View v, const crypto::PartialSig& share);

  /// The certificate of a view whose count reached the threshold.
  [[nodiscard]] crypto::ThresholdSig aggregate(View v) const { return aggs_.at(v).aggregate(); }

  void erase(View v) { aggs_.erase(v); }
  void prune_below(View v) { aggs_.erase(aggs_.begin(), aggs_.lower_bound(v)); }

  /// Views holding an aggregator.
  [[nodiscard]] std::size_t size() const noexcept { return aggs_.size(); }
  /// min(floor, lowest view holding an aggregator).
  [[nodiscard]] View lowest(View floor) const {
    return aggs_.empty() ? floor : std::min(floor, aggs_.begin()->first);
  }

 private:
  crypto::AuthView auth_;
  crypto::Digest (*statement_)(View);
  std::uint32_t threshold_;
  std::map<View, crypto::QuorumAggregator> aggs_;
};

/// The VC send rule shared by Lumiere and Fever (so Basic Lumiere too).
/// Algorithm 1 line 32 has lead(v) send its VC to all, but a process
/// acts on a VC for view v only while its view is below v (line 36), and
/// a view-v message from p shows view(p) >= v, since views never
/// decrease. So the leader sends its VC only to the processes it has not
/// heard a view-v message from, and to itself only while its own view is
/// still below v (the self-copy is what bumps a lagging leader). Senders
/// are recorded by the authenticated channel's `from`: a Byzantine
/// process can only withhold its own copy. The copies leave from a
/// zero-delay event at the end of the instant the VC formed, so every
/// view-v message delivered at that instant is heard first.
class VcFanout {
 public:
  VcFanout(const Pacemaker& owner, const PacemakerWiring& wiring)
      : owner_(owner), wiring_(wiring) {}
  // Pending fan-out events hold this object's address.
  VcFanout(const VcFanout&) = delete;
  VcFanout& operator=(const VcFanout&) = delete;

  /// A view-v message from `from` arrived at lead(v).
  void heard(View v, ProcessId from);
  /// The VC for view v formed now; its copies leave at the end of the
  /// instant. Called once per view.
  void send(View v, MessagePtr vc);

  /// Frees the heard sets below v (on entering v). A set pruned before
  /// its VC left counts as empty.
  void prune_below(View v) { heard_.erase(heard_.begin(), heard_.lower_bound(v)); }
  /// min(floor, lowest view holding a heard set).
  [[nodiscard]] View lowest(View floor) const {
    return heard_.empty() ? floor : std::min(floor, heard_.begin()->first);
  }
  /// VCs formed so far (each sent once, to the processes it can move).
  [[nodiscard]] std::uint64_t formed() const noexcept { return formed_; }

 private:
  void fan_out(View v, const MessagePtr& vc);

  const Pacemaker& owner_;
  const PacemakerWiring& wiring_;
  std::map<View, SignerSet> heard_;
  std::uint64_t formed_ = 0;
};

/// The Gamma grid: view v starts when the local clock reads c_v = Gamma * v.
class GammaGrid {
 public:
  explicit GammaGrid(Duration gamma) : gamma_(gamma) { LUMIERE_ASSERT(gamma > Duration::zero()); }

  [[nodiscard]] Duration gamma() const noexcept { return gamma_; }
  /// c_v = Gamma * v: the local-clock time corresponding to view v.
  [[nodiscard]] Duration view_time(View v) const noexcept { return gamma_ * v; }
  /// The view whose window contains clock value `r` (floor(r / Gamma)).
  [[nodiscard]] View view_at(Duration r) const noexcept { return r.ticks() / gamma_.ticks(); }
  /// True iff clock value `r` is exactly a view boundary c_v.
  [[nodiscard]] bool at_boundary(Duration r) const noexcept {
    return r.ticks() % gamma_.ticks() == 0;
  }

  /// Re-arms `alarm` for the first boundary above the clock's reading
  /// whose view is a multiple of `stride`.
  void arm_next(sim::LocalClock& clock, sim::AlarmId& alarm, View stride,
                sim::LocalClock::AlarmFn fire) const;

 private:
  Duration gamma_;
};

/// Clock-driven view entry on the Gamma grid. Views come in leader
/// tenures (lead(v) = floor(v / tenure) mod n); a tenure's first view is
/// "initial" and is entered when the local clock reaches c_v. Every
/// `views_per_epoch`-th view (none when 0) is an epoch view instead: at
/// c_v the clock pauses and the processor broadcasts an epoch-view
/// share; 2f+1 shares aggregate into an EC, which is broadcast and admits
/// everyone at c_v (LP22, Section 3.2). Subclasses add the QC rule and,
/// for Fever's family, the VC path.
class GridPacemaker : public Pacemaker {
 public:
  void start() override { process_clock(); }
  void on_message(ProcessId from, const MessagePtr& msg) override;
  [[nodiscard]] ProcessId leader_of(View v) const override { return schedule_.leader_of(v); }
  [[nodiscard]] View current_view() const override { return view_; }
  [[nodiscard]] View lowest_held_view() const override { return epoch_shares_.lowest(view_); }

  [[nodiscard]] Duration gamma() const noexcept { return grid_.gamma(); }
  [[nodiscard]] Duration view_time(View v) const noexcept { return grid_.view_time(v); }
  [[nodiscard]] bool is_initial(View v) const noexcept { return v >= 0 && v % tenure_ == 0; }
  [[nodiscard]] std::int64_t views_per_epoch() const noexcept { return views_per_epoch_; }
  [[nodiscard]] bool is_epoch_view(View v) const noexcept {
    return views_per_epoch_ > 0 && v >= 0 && v % views_per_epoch_ == 0;
  }
  /// Epoch arithmetic; only for pacemakers with epochs (views_per_epoch > 0).
  [[nodiscard]] View epoch_first_view(Epoch e) const noexcept { return e * views_per_epoch_; }
  [[nodiscard]] Epoch epoch_of(View v) const noexcept {
    return v >= 0 ? v / views_per_epoch_ : -1;
  }

 protected:
  GridPacemaker(const ProtocolParams& params, ProcessId self, crypto::Signer signer,
                PacemakerWiring wiring, Duration gamma, std::uint32_t tenure,
                std::int64_t views_per_epoch);

  /// Runs the clock rules at the current reading and re-arms the alarm.
  void process_clock();
  /// Enters v (no-op unless v > view_); `announce` as in
  /// Pacemaker::notify_enter_view.
  void enter_view(View v, bool announce = false);
  /// Entry into a non-epoch initial view the clock reached.
  virtual void enter_clock_view(View w) { enter_view(w); }
  /// Frees per-view state below v on entering v.
  virtual void prune_below(View v) { epoch_shares_.prune_below(v); }

  View view_ = -1;

 private:
  void begin_epoch_sync(View epoch_view);
  void handle_epoch_share(const EpochViewMsg& msg);
  void handle_ec(const EcMsg& msg);

  GammaGrid grid_;
  std::uint32_t tenure_;
  std::int64_t views_per_epoch_;
  RoundRobinSchedule schedule_;
  sim::AlarmId boundary_alarm_ = 0;
  /// The last epoch view this processor broadcast its share for (the
  /// clock never runs backwards, so epoch syncs begin in view order).
  View epoch_msg_sent_ = -1;
  ShareCollector epoch_shares_;
};

}  // namespace lumiere::pacemaker
