// Harness wiring a SINGLE pacemaker instance with captured outputs and
// direct message injection — unit-level testing of the view-sync logic
// without a full cluster (the other n-1 processors are played by the
// test via the shared authenticator's signers).
#pragma once

#include <memory>
#include <vector>

#include "crypto/authenticator.h"
#include "pacemaker/certificates.h"
#include "pacemaker/messages.h"
#include "pacemaker/pacemaker.h"
#include "sim/local_clock.h"
#include "sim/simulator.h"

namespace lumiere::testutil {

class PacemakerHarness {
 public:
  struct Sent {
    ProcessId to;  ///< kNoProcess for broadcasts
    MessagePtr msg;
  };

  explicit PacemakerHarness(std::uint32_t n, ProcessId self = 0)
      : params_(ProtocolParams::for_n(n, Duration::millis(10))),
        auth_(crypto::make_authenticator(crypto::kDefaultScheme, n, 7)),
        self_(self),
        clock_(&sim_, TimePoint::origin()) {}

  /// Builds wiring whose outputs land in this harness.
  [[nodiscard]] pacemaker::PacemakerWiring wiring() {
    pacemaker::PacemakerWiring w;
    w.sim = &sim_;
    w.clock = &clock_;
    w.auth = crypto::AuthView(auth_.get());
    w.send = [this](ProcessId to, MessagePtr msg) {
      sent_.push_back(Sent{to, std::move(msg)});
      // A send to self is received at once, as on the network.
      if (to == self_ && pm_ != nullptr) deliver_to_self(sent_.back().msg);
    };
    w.broadcast = [this](MessagePtr msg) {
      sent_.push_back(Sent{kNoProcess, std::move(msg)});
      // Self-delivery per the paper's broadcast convention.
      if (pm_ != nullptr) deliver_to_self(sent_.back().msg);
    };
    w.enter_view = [this](View v) { entered_.push_back(v); };
    w.propose_poke = [this](View v) { pokes_.push_back(v); };
    return w;
  }

  /// Registers the pacemaker under test (after construction).
  void attach(pacemaker::Pacemaker* pm) { pm_ = pm; }

  /// Injects a view message for view v signed by processor `from`.
  void inject_view_msg(ProcessId from, View v) {
    pm_->on_message(from, std::make_shared<pacemaker::ViewMsg>(
                              v, crypto::threshold_share(auth_->signer_for(from),
                                                         pacemaker::view_msg_statement(v))));
  }

  /// Injects an epoch-view message for view v signed by `from`.
  void inject_epoch_msg(ProcessId from, View v) {
    pm_->on_message(from,
                    std::make_shared<pacemaker::EpochViewMsg>(
                        v, crypto::threshold_share(auth_->signer_for(from),
                                                   pacemaker::epoch_msg_statement(v))));
  }

  /// Injects a VC for view v aggregated from the first f+1 processors.
  void inject_vc(View v) {
    crypto::QuorumAggregator agg(crypto::AuthView(auth_.get()),
                                 pacemaker::view_msg_statement(v), params_.small_quorum());
    for (ProcessId id = 0; id < params_.small_quorum(); ++id) {
      agg.add(crypto::threshold_share(auth_->signer_for(id), pacemaker::view_msg_statement(v)));
    }
    pm_->on_message(1, std::make_shared<pacemaker::VcMsg>(
                           pacemaker::SyncCert(v, agg.aggregate())));
  }

  /// Feeds a (valid) QC for view v to the pacemaker.
  void inject_qc(View v) {
    const crypto::Digest block = crypto::Sha256::hash("block");
    const crypto::Digest statement = consensus::QuorumCert::statement(v, block);
    crypto::QuorumAggregator agg(crypto::AuthView(auth_.get()), statement, params_.quorum());
    for (ProcessId id = 0; id < params_.quorum(); ++id) {
      agg.add(crypto::threshold_share(auth_->signer_for(id), statement));
    }
    pm_->on_qc(consensus::QuorumCert(v, block, agg.aggregate()));
  }

  /// Captured point-to-point sends of one message type to `to`.
  [[nodiscard]] std::size_t sent_to(std::uint32_t type_id, ProcessId to) const {
    std::size_t count = 0;
    for (const auto& s : sent_) {
      if (s.msg->type_id() == type_id && s.to == to) ++count;
    }
    return count;
  }

  /// Counts captured sends of one message type (broadcasts count once).
  [[nodiscard]] std::size_t sent_count(std::uint32_t type_id) const {
    std::size_t count = 0;
    for (const auto& s : sent_) {
      if (s.msg->type_id() == type_id) ++count;
    }
    return count;
  }

  [[nodiscard]] const std::vector<Sent>& sent() const { return sent_; }
  [[nodiscard]] const std::vector<View>& entered() const { return entered_; }
  [[nodiscard]] const std::vector<View>& pokes() const { return pokes_; }
  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] sim::LocalClock& clock() { return clock_; }
  [[nodiscard]] const ProtocolParams& params() const { return params_; }
  [[nodiscard]] const crypto::Authenticator& auth() const { return *auth_; }
  [[nodiscard]] crypto::AuthView auth_view() const { return crypto::AuthView(auth_.get()); }
  [[nodiscard]] crypto::Signer signer() const { return auth_->signer_for(self_); }
  [[nodiscard]] ProcessId self() const { return self_; }

  void run_to(TimePoint t) { sim_.run_until(t); }
  void settle() { sim_.run_until(sim_.now()); }

 private:
  void deliver_to_self(MessagePtr msg) {
    sim_.schedule_at(sim_.now(), [this, msg] { pm_->on_message(self_, msg); });
  }

  ProtocolParams params_;
  std::unique_ptr<crypto::Authenticator> auth_;
  ProcessId self_;
  sim::Simulator sim_;
  sim::LocalClock clock_;
  pacemaker::Pacemaker* pm_ = nullptr;
  std::vector<Sent> sent_;
  std::vector<View> entered_;
  std::vector<View> pokes_;
};

}  // namespace lumiere::testutil
