// A Node: one processor's full protocol stack, wired together.
//
//          +-----------------------------------------------+
//          |                    Node                        |
//          |  LocalClock <---- Pacemaker ----> enter_view   |
//          |                     ^  |              |        |
//          |        QCs observed |  | leader_of,   v        |
//          |                     |  | deadlines  ConsensusCore
//          |                     +--+---------------+       |
//          |        outbound (via Behavior filter)  |       |
//          +----------------------|-----------------|-------+
//                                 v                 v
//                          MessageTransport (sim or TCP)
//
// The pacemaker and consensus core are looked up by name in the
// ProtocolRegistry; most callers construct nodes indirectly through
// runtime::ScenarioBuilder (runtime/scenario.h).
#pragma once

#include <memory>
#include <optional>

#include "adversary/behaviors.h"
#include "common/params.h"
#include "consensus/core.h"
#include "consensus/ledger.h"
#include "dissem/disseminator.h"
#include "pacemaker/pacemaker.h"
#include "runtime/registry.h"
#include "sim/local_clock.h"
#include "sim/transport_iface.h"
#include "sync/block_sync.h"

namespace lumiere::runtime {

/// Per-node construction config: which protocols to run (by registry
/// name, with their typed knobs) plus this processor's local conditions.
struct NodeConfig {
  ProtocolConfig protocol;
  /// When this processor joins (its lc reads 0 at this instant).
  TimePoint join_time = TimePoint::origin();
  /// Rate skew of this processor's local clock in parts-per-million (the
  /// paper's bounded-drift remark); 0 = perfect rate.
  std::int64_t clock_drift_ppm = 0;
  /// Block payload source consulted when this node proposes (a scripted
  /// application payload); null = empty payloads. Ignored when `dissem`
  /// is on — the disseminator becomes the payload source (certified
  /// references) — and by chained cores when `forwarding` is set.
  PayloadProvider payload_provider;
  /// Request forwarding hooks (the client workload's mempool): chained
  /// cores attach admitted requests to their NewViews and propose the
  /// ones they receive (consensus/chained_core.h). Ignored when `dissem`
  /// is on; null `attach` = off.
  consensus::RequestForwarding forwarding;
  /// Data-dissemination layer: when on, the node runs a Disseminator
  /// wired between its mempool (via `dissem_hooks`) and its consensus
  /// core (payload provider, vote gate, commit resolution).
  bool dissem = false;
  /// Harness-side disseminator callbacks (lease_batch/ack_batch/deliver
  /// plus the optional on_batch_certified). The node-side callbacks (send,
  /// broadcast, schedule, now, next_proposer) are filled in by the Node
  /// itself.
  dissem::DisseminatorCallbacks dissem_hooks;
  /// Observability: when set, the node installs these counters into its
  /// Signer and AuthView so every authenticator op it performs is
  /// attributed to it (crypto/auth_counters.h). Owned by the harness
  /// (the cluster's SyncTracer); null = no counting.
  crypto::AuthOpCounters* auth_ops = nullptr;
};

/// Events the node reports to the harness (metrics, tests). Sends are not
/// among them: the transport's send tap observes each copy on the wire
/// (sim::NetworkObserver, runtime::SendTap).
struct NodeObservers {
  /// This node, as leader, produced a QC for `view` (a consensus
  /// decision in the paper's accounting when the node is honest).
  std::function<void(TimePoint at, View view, ProcessId node)> on_qc_formed;
  /// This node entered `view`.
  std::function<void(TimePoint at, View view, ProcessId node)> on_view_entered;
  /// This node committed a block (chained HotStuff only).
  std::function<void(TimePoint at, const consensus::Block& block, ProcessId node)> on_commit;
  /// This node's pacemaker began a view-sync episode: it is in view
  /// `current` and started spending resources aiming for `target`.
  std::function<void(TimePoint at, View current, View target, ProcessId node)> on_sync_started;
};

class Node {
 public:
  /// Builds the stack named by `config.protocol` via the registry; throws
  /// std::invalid_argument on unknown protocol names (ScenarioBuilder
  /// validates earlier and produces friendlier per-node errors).
  Node(const ProtocolParams& params, ProcessId id, sim::Simulator* sim, MessageTransport* network,
       const crypto::Authenticator* auth, NodeConfig config, NodeObservers observers,
       std::unique_ptr<adversary::Behavior> behavior);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Registers the network endpoint and schedules protocol start at the
  /// join time. Call exactly once.
  void start();

  [[nodiscard]] ProcessId id() const noexcept { return id_; }
  /// True if this node ever ran a non-honest behavior (sticky: a
  /// scripted behavior change back to "honest" does not clear it — the
  /// node's earlier deviations remain in the execution).
  [[nodiscard]] bool is_byzantine() const noexcept;

  /// Swaps the node's outbound behavior from now on (the fault-schedule
  /// kBehaviorChange executor). The Byzantine flag is sticky.
  void set_behavior(std::unique_ptr<adversary::Behavior> behavior);
  [[nodiscard]] const sim::LocalClock& local_clock() const noexcept { return *clock_; }
  [[nodiscard]] sim::LocalClock& local_clock() noexcept { return *clock_; }
  [[nodiscard]] pacemaker::Pacemaker& pacemaker() noexcept { return *pacemaker_; }
  [[nodiscard]] const pacemaker::Pacemaker& pacemaker() const noexcept { return *pacemaker_; }
  [[nodiscard]] consensus::ConsensusCore& core() noexcept { return *core_; }
  [[nodiscard]] const consensus::Ledger& ledger() const noexcept { return ledger_; }
  [[nodiscard]] consensus::Ledger& ledger() noexcept { return ledger_; }
  [[nodiscard]] View current_view() const { return pacemaker_->current_view(); }
  /// The registry names this node was built from.
  [[nodiscard]] const ProtocolConfig& protocol() const noexcept { return protocol_; }
  /// The node's dissemination engine; nullptr unless NodeConfig::dissem
  /// was set.
  [[nodiscard]] const dissem::Disseminator* disseminator() const noexcept {
    return dissem_.get();
  }
  [[nodiscard]] dissem::Disseminator* disseminator() noexcept { return dissem_.get(); }
  /// The node's block-sync engine; every node runs one, so never null.
  [[nodiscard]] const sync::BlockSynchronizer* synchronizer() const noexcept {
    return sync_.get();
  }
  /// The memo of signatures the verify pipeline already checked for
  /// this node. Written only by the node's driver thread (TCP).
  [[nodiscard]] crypto::VerifyMemo& verify_memo() noexcept { return memo_; }
  /// Announced view entries whose view share rode a NewView (enter_view).
  [[nodiscard]] std::uint64_t riding_shares() const noexcept { return riding_shares_; }
  /// The verification facade this node's protocol layers use.
  [[nodiscard]] crypto::AuthView auth_view() const noexcept { return auth_view_; }

 private:
  void build_pacemaker(const NodeConfig& config);
  void build_dissem(const NodeConfig& config);
  void build_core(const NodeConfig& config);
  void build_sync();
  void route_inbound(ProcessId from, const MessagePtr& msg);
  /// PacemakerWiring::enter_view.
  void enter_view(View v, bool announce);
  void outbound(ProcessId to, MessagePtr msg);
  void outbound_broadcast(const MessagePtr& msg);
  [[nodiscard]] adversary::Toolkit toolkit();

  ProtocolParams params_;
  ProcessId id_;
  sim::Simulator* sim_;
  MessageTransport* network_;
  crypto::VerifyMemo memo_;
  crypto::AuthView auth_view_;
  crypto::Signer signer_;
  NodeObservers observers_;
  std::unique_ptr<adversary::Behavior> behavior_;
  TimePoint join_time_;
  ProtocolConfig protocol_;

  std::unique_ptr<sim::LocalClock> clock_;
  std::unique_ptr<pacemaker::Pacemaker> pacemaker_;
  std::unique_ptr<dissem::Disseminator> dissem_;
  std::unique_ptr<consensus::ConsensusCore> core_;
  std::unique_ptr<sync::BlockSynchronizer> sync_;
  consensus::Ledger ledger_;
  bool ever_byzantine_ = false;
  bool started_ = false;
  bool protocol_running_ = false;
  std::vector<std::pair<ProcessId, MessagePtr>> pre_join_inbox_;
  /// The announced entry in progress (view -1: none) and the NewView the
  /// core sent its leader during on_enter_view (enter_view).
  struct Announcement {
    View view = -1;
    MessagePtr new_view;
  };
  Announcement announcing_;
  std::uint64_t riding_shares_ = 0;
};

}  // namespace lumiere::runtime
