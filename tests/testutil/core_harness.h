// Test harness that wires N consensus cores through the simulated network
// with a *manual* pacemaker: the test decides when each core enters each
// view. Isolates the underlying-protocol logic from view synchronization.
#pragma once

#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "consensus/chained_core.h"
#include "consensus/simple_view_core.h"
#include "crypto/authenticator.h"
#include "sim/delay_policy.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace lumiere::testutil {

template <typename Core>
class CoreHarness {
 public:
  struct NodeState {
    std::unique_ptr<Core> core;
    std::vector<consensus::QuorumCert> qcs_seen;
    std::vector<consensus::QuorumCert> qcs_formed;
    std::vector<crypto::Digest> committed;
  };

  /// `rule` picks the chain rule when Core is ChainedCore (else unused).
  explicit CoreHarness(std::uint32_t n, Duration delay = Duration::micros(10),
                       std::function<bool(View)> may_form_qc = nullptr,
                       consensus::ChainRule rule = consensus::ChainRule::hotstuff())
      : params_(ProtocolParams::for_n(n, Duration::millis(10))),
        auth_(crypto::make_authenticator(crypto::kDefaultScheme, n, 99)),
        network_(&sim_, n, TimePoint::origin(), params_.delta_cap,
                 std::make_shared<sim::FixedDelay>(delay), 3) {
    nodes_.resize(n);
    for (ProcessId id = 0; id < n; ++id) {
      consensus::CoreCallbacks cb;
      cb.send = [this, id](ProcessId to, MessagePtr msg) {
        network_.send(id, to, std::move(msg));
      };
      cb.broadcast = [this, id](MessagePtr msg) { network_.broadcast(id, msg); };
      cb.qc_seen = [this, id](const consensus::QuorumCert& qc) {
        nodes_[id].qcs_seen.push_back(qc);
        if (on_qc_seen) on_qc_seen(id, qc);
      };
      cb.qc_formed = [this, id](const consensus::QuorumCert& qc) {
        nodes_[id].qcs_formed.push_back(qc);
      };
      cb.decided = [this, id](const std::shared_ptr<const consensus::Block>& b) {
        nodes_[id].committed.push_back(b->hash());
      };
      cb.schedule = [this](Duration delay, std::function<void()> fn) {
        sim_.schedule_after(delay, std::move(fn));
      };
      consensus::PacemakerHooks hooks;
      hooks.leader_of = [n](View v) {
        return static_cast<ProcessId>(v >= 0 ? v % n : 0);
      };
      hooks.may_form_qc = may_form_qc;
      const crypto::AuthView auth(auth_.get());
      if constexpr (std::is_same_v<Core, consensus::ChainedCore>) {
        nodes_[id].core = std::make_unique<Core>(rule, params_, auth, auth_->signer_for(id),
                                                 std::move(cb), std::move(hooks));
      } else {
        nodes_[id].core = std::make_unique<Core>(params_, auth, auth_->signer_for(id),
                                                 std::move(cb), std::move(hooks));
      }
      network_.register_endpoint(id, [this, id](ProcessId from, const MessagePtr& msg) {
        nodes_[id].core->on_message(from, msg);
      });
    }
  }

  CoreHarness(std::uint32_t n, consensus::ChainRule rule)
      : CoreHarness(n, Duration::micros(10), nullptr, rule) {}

  /// Test hook run inside CoreCallbacks::qc_seen, where a pacemaker
  /// would react (e.g. by moving the core into the next view).
  std::function<void(ProcessId, const consensus::QuorumCert&)> on_qc_seen;

  /// Moves every core into view v and drains the network.
  void enter_view_all(View v) {
    for (auto& node : nodes_) node.core->on_enter_view(v);
    settle();
  }

  void enter_view(ProcessId id, View v) { nodes_[id].core->on_enter_view(v); }

  void settle() { sim_.run_until_idle(); }

  [[nodiscard]] NodeState& node(ProcessId id) { return nodes_[id]; }
  [[nodiscard]] Core& core(ProcessId id) { return *nodes_[id].core; }
  [[nodiscard]] const ProtocolParams& params() const { return params_; }
  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] sim::Network& network() { return network_; }
  [[nodiscard]] const crypto::Authenticator& auth() const { return *auth_; }
  [[nodiscard]] crypto::AuthView auth_view() const { return crypto::AuthView(auth_.get()); }
  [[nodiscard]] std::uint32_t n() const { return params_.n; }

  /// True if every node saw a QC for view v.
  [[nodiscard]] bool all_saw_qc(View v) const {
    for (const auto& node : nodes_) {
      bool found = false;
      for (const auto& qc : node.qcs_seen) {
        if (qc.view() == v) found = true;
      }
      if (!found) return false;
    }
    return true;
  }

 private:
  ProtocolParams params_;
  std::unique_ptr<crypto::Authenticator> auth_;
  sim::Simulator sim_;
  sim::Network network_;
  std::vector<NodeState> nodes_;
};

}  // namespace lumiere::testutil
