// Cogsworth [15]: leader-relay Byzantine view synchronization.
//
// On timing out in view v, a processor sends a signed wish for v+1 to the
// *leader* of v+1 (not all-to-all). The leader aggregates f+1 wishes into
// a view-change certificate and broadcasts it; everyone enters on receipt.
// If the target leader fails to respond, wishes are relayed to the leaders
// of successive views every `relay_timeout`, so each faulty relay costs
// O(n) messages and O(Delta) time.
//
// Measured shape (Table 1, "Cogsworth NK20" column):
//   worst-case communication O(n^3), worst-case latency O(n^2 Delta),
//   eventual O(n + n f_a^2) communication and O(f_a^2 Delta + delta)
//   latency — each of up to f_a consecutive faulty views can burn up to
//   f_a faulty relays before hitting an honest one.
//
// NaorKeidarPacemaker (naor_keidar.h) reuses this machinery with a
// randomized leader schedule, which is what turns the f_a^2 worst case
// into expected-constant relays (NK20 [16]).
#pragma once

#include <memory>

#include "pacemaker/view_sync_kit.h"

namespace lumiere::pacemaker {

class CogsworthPacemaker : public Pacemaker {
 public:
  struct Options {
    /// Time in a view before wishing to leave it.
    Duration view_timeout;
    /// Time between successive relay attempts.
    Duration relay_timeout;
  };

  CogsworthPacemaker(const ProtocolParams& params, ProcessId self, crypto::Signer signer,
                     PacemakerWiring wiring, Options options,
                     std::unique_ptr<LeaderSchedule> schedule);

  void start() override;
  void on_message(ProcessId from, const MessagePtr& msg) override;
  void on_qc(const consensus::QuorumCert& qc) override;
  [[nodiscard]] ProcessId leader_of(View v) const override { return schedule_->leader_of(v); }
  [[nodiscard]] View current_view() const override { return view_; }
  [[nodiscard]] const char* name() const override { return "cogsworth"; }
  [[nodiscard]] View lowest_held_view() const override { return wishes_.lowest(view_); }

 private:
  void enter_view(View v);
  void arm_view_timer();
  void begin_wishing(View target);
  void relay_wish();
  void handle_wish(const WishMsg& msg);
  void handle_cert(const WishCertMsg& msg);

  Options options_;
  std::unique_ptr<LeaderSchedule> schedule_;
  View view_ = -1;
  sim::EventHandle view_timer_;

  // Wishing state: the view we are trying to reach and the relay index
  // (0 = lead(target), k = lead(target + k)).
  View wish_target_ = -1;
  std::uint32_t relay_index_ = 0;
  sim::EventHandle relay_timer_;

  // Relay-side state: wishes received for each view (any processor can be
  // asked to act as a relay); a view closes once its certificate is out.
  ShareCollector wishes_;
};

}  // namespace lumiere::pacemaker
