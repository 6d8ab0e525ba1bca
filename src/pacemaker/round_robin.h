// RoundRobinPacemaker: the folklore exponential-backoff pacemaker
// (what HotStuff deployments historically shipped).
//
// Views advance responsively on QCs. On timeout, a processor broadcasts a
// signed wish for the next view (all-to-all); f+1 wishes for a higher
// view are echoed (Bracha-style amplification), and 2f+1 wishes admit the
// view and double the timeout. Simple and live, but:
//   * every view change costs Theta(n^2) messages, and
//   * the exponential backoff makes post-GST latency depend on how long
//     the network was asynchronous (unbounded in GST), so it meets none
//     of the paper's bounds. It is the "what everyone used before"
//     baseline.
#pragma once

#include <set>

#include "pacemaker/view_sync_kit.h"

namespace lumiere::pacemaker {

class RoundRobinPacemaker final : public Pacemaker {
 public:
  struct Options {
    /// Base view timeout; doubles per consecutive failure.
    Duration base_timeout;
    /// Cap on the backoff exponent.
    std::uint32_t max_backoff_exponent = 16;
  };

  RoundRobinPacemaker(const ProtocolParams& params, ProcessId self, crypto::Signer signer,
                      PacemakerWiring wiring, Options options);

  void start() override;
  void on_message(ProcessId from, const MessagePtr& msg) override;
  void on_qc(const consensus::QuorumCert& qc) override;
  [[nodiscard]] ProcessId leader_of(View v) const override {
    return schedule_.leader_of(v);
  }
  [[nodiscard]] View current_view() const override { return view_; }
  [[nodiscard]] const char* name() const override { return "round-robin"; }
  [[nodiscard]] View lowest_held_view() const override {
    return wishes_.lowest(wished_.empty() ? view_ : std::min(view_, *wished_.begin()));
  }

 private:
  void enter_view(View v, bool via_timeout);
  void arm_timer();
  void on_timeout();
  void send_wish(View v);
  void handle_wish(const WishMsg& msg);

  Options options_;
  RoundRobinSchedule schedule_;
  View view_ = -1;
  std::uint32_t consecutive_timeouts_ = 0;
  sim::EventHandle timer_;
  std::set<View> wished_;
  ShareCollector wishes_;  // threshold 2f+1; f+1 is the echo point
};

}  // namespace lumiere::pacemaker
