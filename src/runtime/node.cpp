#include "runtime/node.h"

#include <cstring>

#include "consensus/messages.h"

namespace lumiere::runtime {

Node::Node(const ProtocolParams& params, ProcessId id, sim::Simulator* sim,
           MessageTransport* network, const crypto::Authenticator* auth, NodeConfig config,
           NodeObservers observers, std::unique_ptr<adversary::Behavior> behavior)
    : params_(params),
      id_(id),
      sim_(sim),
      network_(network),
      auth_view_(auth, &memo_, config.auth_ops),
      signer_(auth->signer_for(id)),
      observers_(std::move(observers)),
      behavior_(std::move(behavior)),
      join_time_(config.join_time),
      protocol_(config.protocol) {
  LUMIERE_ASSERT(sim != nullptr && network != nullptr && auth != nullptr);
  LUMIERE_ASSERT(behavior_ != nullptr);
  ever_byzantine_ = std::strcmp(behavior_->name(), "honest") != 0;
  // Before build_* so the pacemaker/dissem/core Signer copies inherit it.
  signer_.set_op_counters(config.auth_ops);
  clock_ = std::make_unique<sim::LocalClock>(sim_, config.join_time, config.clock_drift_ppm);
  build_pacemaker(config);
  build_dissem(config);
  build_core(config);
  build_sync();
}

bool Node::is_byzantine() const noexcept { return ever_byzantine_; }

void Node::set_behavior(std::unique_ptr<adversary::Behavior> behavior) {
  LUMIERE_ASSERT(behavior != nullptr);
  behavior_ = std::move(behavior);
  ever_byzantine_ = ever_byzantine_ || std::strcmp(behavior_->name(), "honest") != 0;
}

adversary::Toolkit Node::toolkit() {
  adversary::Toolkit tk;
  tk.self = id_;
  tk.params = &params_;
  tk.auth = auth_view_;
  tk.signer = &signer_;
  tk.leader_of = [this](View v) { return pacemaker_->leader_of(v); };
  tk.high_qc = [this]() -> const consensus::QuorumCert& { return core_->high_qc(); };
  tk.raw_send = [this](ProcessId to, MessagePtr msg) { network_->send(id_, to, std::move(msg)); };
  return tk;
}

void Node::build_pacemaker(const NodeConfig& config) {
  pacemaker::PacemakerWiring wiring;
  wiring.sim = sim_;
  wiring.clock = clock_.get();
  wiring.auth = auth_view_;
  wiring.send = [this](ProcessId to, MessagePtr msg) { outbound(to, std::move(msg)); };
  wiring.broadcast = [this](MessagePtr msg) { outbound_broadcast(msg); };
  wiring.enter_view = [this](View v) {
    if (core_) core_->on_enter_view(v);
    if (observers_.on_view_entered) observers_.on_view_entered(sim_->now(), v, id_);
    behavior_->on_view_entered(sim_->now(), v, toolkit());
  };
  wiring.propose_poke = [this](View v) {
    if (core_) core_->on_propose_allowed(v);
  };
  if (observers_.on_sync_started) {
    wiring.sync_started = [this](View target) {
      observers_.on_sync_started(sim_->now(), pacemaker_->current_view(), target, id_);
    };
  }

  pacemaker_ = ProtocolRegistry::instance().make_pacemaker(
      config.protocol.pacemaker,
      PacemakerContext{params_, id_, signer_, std::move(wiring), config.protocol});
}

void Node::build_dissem(const NodeConfig& config) {
  if (!config.dissem.has_value()) return;
  // Harness hooks (mempool lease/ack, delivery, metrics) come from the
  // config; the transport-facing quartet is this node's own plumbing so
  // dissemination traffic obeys the same Behavior filter and simulated
  // clock as consensus traffic.
  dissem::DisseminatorCallbacks cb = config.dissem_hooks;
  cb.send = [this](ProcessId to, MessagePtr msg) { outbound(to, std::move(msg)); };
  cb.broadcast = [this](MessagePtr msg) { outbound_broadcast(msg); };
  cb.schedule = [this](Duration delay, std::function<void()> fn) {
    sim_->schedule_after(delay, std::move(fn));
  };
  cb.now = [this] { return sim_->now(); };
  dissem_ = std::make_unique<dissem::Disseminator>(params_, auth_view_, signer_, *config.dissem,
                                                   std::move(cb));
}

void Node::build_core(const NodeConfig& config) {
  consensus::CoreCallbacks callbacks;
  callbacks.send = [this](ProcessId to, MessagePtr msg) { outbound(to, std::move(msg)); };
  callbacks.broadcast = [this](MessagePtr msg) { outbound_broadcast(msg); };
  callbacks.qc_formed = [this](const consensus::QuorumCert& qc) {
    pacemaker_->on_local_qc_formed(qc);
    if (observers_.on_qc_formed) observers_.on_qc_formed(sim_->now(), qc.view(), id_);
  };
  callbacks.qc_seen = [this](const consensus::QuorumCert& qc) { pacemaker_->on_qc(qc); };
  callbacks.decided = [this](const std::shared_ptr<const consensus::Block>& block) {
    ledger_.commit(block, sim_->now());
    // Resolve committed references into delivered batches (the dissem
    // layer invokes the harness `deliver` hook, exactly once per batch).
    if (dissem_) dissem_->on_committed_payload(block->payload());
    if (observers_.on_commit) observers_.on_commit(sim_->now(), *block, id_);
  };
  callbacks.schedule = [this](Duration delay, std::function<void()> fn) {
    sim_->schedule_after(delay, std::move(fn));
  };
  // The commit walk hit a never-arriving missing ancestor: hand the hash
  // to the synchronizer (built right after the core).
  callbacks.fetch_missing = [this](const crypto::Digest& hash) { sync_->on_missing(hash); };

  PayloadProvider provider = config.payload_provider;
  if (dissem_) {
    // Proposals order certified references, not payload bytes.
    provider = [this](View v) { return dissem_->make_proposal_payload(v); };
    callbacks.payload_ok = [this](const consensus::Block& block) {
      return dissem_->refs_payload_ok(
          std::span<const std::uint8_t>(block.payload().data(), block.payload().size()));
    };
  }

  consensus::PacemakerHooks hooks;
  hooks.leader_of = [this](View v) { return pacemaker_->leader_of(v); };
  hooks.may_form_qc = [this](View v) { return pacemaker_->may_form_qc(v); };
  hooks.may_propose = [this](View v) { return pacemaker_->may_propose(v); };

  core_ = ProtocolRegistry::instance().make_core(
      config.protocol.core,
      CoreContext{params_, id_, auth_view_, signer_, std::move(callbacks), std::move(hooks),
                  std::move(provider), config.protocol});
}

void Node::build_sync() {
  // Serve and verify against the core's content-addressed store. Fetched
  // blocks re-enter through ConsensusCore::on_synced_block, whose commit
  // path runs the same `decided` callback as live blocks — so a fetched
  // block's dissem batch refs still resolve via on_committed_payload.
  sync::SyncCallbacks cb;
  cb.send = [this](ProcessId to, MessagePtr msg) { outbound(to, std::move(msg)); };
  cb.schedule = [this](Duration delay, std::function<void()> fn) {
    sim_->schedule_after(delay, std::move(fn));
  };
  cb.lookup = [this](const crypto::Digest& hash) { return core_->block_for_sync(hash); };
  cb.accept = [this](const consensus::Block& block) { core_->on_synced_block(block); };
  // Retry cadence: a fetch plus its response fit in 2*Delta post-GST, so
  // rotate peers no faster than that.
  sync_ = std::make_unique<sync::BlockSynchronizer>(
      id_, params_.n, Duration(params_.delta_cap.ticks() * 2), std::move(cb));
}

void Node::start() {
  LUMIERE_ASSERT_MSG(!started_, "Node::start called twice");
  started_ = true;
  network_->register_endpoint(id_,
                              [this](ProcessId from, const MessagePtr& msg) {
                                route_inbound(from, msg);
                              });
  sim_->schedule_at(join_time_, [this] {
    protocol_running_ = true;
    pacemaker_->start();
    if (dissem_) dissem_->start();
    for (auto& [from, msg] : pre_join_inbox_) route_inbound(from, msg);
    pre_join_inbox_.clear();
  });
}

void Node::route_inbound(ProcessId from, const MessagePtr& msg) {
  if (!protocol_running_) {
    pre_join_inbox_.emplace_back(from, msg);
    return;
  }
  if (msg->msg_class() == MsgClass::kConsensus) {
    // Every received proposal's references are in flight somewhere: note
    // them so this node's own next proposal doesn't re-order duplicates
    // (a reinsert timer restores any reference whose proposal dies).
    if (dissem_ && msg->type_id() == consensus::kProposal) {
      const auto& payload = static_cast<const consensus::ProposalMsg&>(*msg).block().payload();
      dissem_->on_refs_proposed(std::span<const std::uint8_t>(payload.data(), payload.size()));
    }
    core_->on_message(from, msg);
  } else if (msg->msg_class() == MsgClass::kDissem) {
    if (dissem_) dissem_->on_message(from, msg);
  } else if (msg->msg_class() == MsgClass::kSync) {
    sync_->on_message(from, msg);
  } else {
    pacemaker_->on_message(from, msg);
  }
}

void Node::outbound(ProcessId to, MessagePtr msg) {
  if (!behavior_->allow_send(sim_->now(), to, *msg)) return;
  if (observers_.on_sent && to != id_) observers_.on_sent(id_, msg->wire_size());
  network_->send(id_, to, std::move(msg));
}

void Node::outbound_broadcast(const MessagePtr& msg) {
  // Per-recipient so the Byzantine filter can act per destination; the
  // paper's broadcast convention (include self) is preserved.
  for (ProcessId to = 0; to < params_.n; ++to) outbound(to, msg);
}

}  // namespace lumiere::runtime
