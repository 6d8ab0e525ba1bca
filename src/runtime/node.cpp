#include "runtime/node.h"

#include <cstring>
#include <utility>

#include "consensus/messages.h"
#include "pacemaker/messages.h"

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
  wiring.enter_view = [this](View v, bool announce) { enter_view(v, announce); };
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
  if (!config.dissem) return;
  // Harness hooks (mempool lease/ack, delivery, metrics) come from the
  // config; the transport-facing hooks are this node's own plumbing so
  // dissemination traffic obeys the same Behavior filter and simulated
  // clock as consensus traffic. The pacemaker is already built.
  dissem::DisseminatorCallbacks cb = config.dissem_hooks;
  cb.send = [this](ProcessId to, MessagePtr msg) { outbound(to, std::move(msg)); };
  cb.broadcast = [this](MessagePtr msg) { outbound_broadcast(msg); };
  cb.schedule = [this](Duration delay, std::function<void()> fn) {
    sim_->schedule_after(delay, std::move(fn));
  };
  cb.now = [this] { return sim_->now(); };
  cb.next_proposer = [this] { return pacemaker_->leader_of(pacemaker_->current_view() + 1); };
  dissem_ = std::make_unique<dissem::Disseminator>(params_, auth_view_, signer_, std::move(cb));
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
  // Committed blocks leave the core's store; block sync reads them here.
  callbacks.committed_block =
      [this](const crypto::Digest& hash) -> std::shared_ptr<const consensus::Block> {
    const consensus::CommittedEntry* entry = ledger_.find(hash);
    return entry != nullptr ? entry->block : nullptr;
  };

  PayloadProvider provider = config.payload_provider;
  if (dissem_) {
    // Proposals order certified references, not payload bytes.
    provider = [this](View v) { return dissem_->make_proposal_payload(v); };
    callbacks.payload_ok = [this](const consensus::Block& block) {
      return dissem_->refs_payload_ok(
          std::span<const std::uint8_t>(block.payload().data(), block.payload().size()));
    };
  } else {
    callbacks.forwarding = config.forwarding;
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
  // Serve from the core: its store, then this node's ledger. Fetched
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
    // A view share riding a NewView (enter_view) goes to the pacemaker
    // once the core has taken the NewView.
    if (msg->type_id() == consensus::kNewView) {
      pacemaker_->on_new_view(from, static_cast<const consensus::NewViewMsg&>(*msg));
    }
  } else if (msg->msg_class() == MsgClass::kDissem) {
    if (dissem_) dissem_->on_message(from, msg);
  } else if (msg->msg_class() == MsgClass::kSync) {
    sync_->on_message(from, msg);
  } else {
    pacemaker_->on_message(from, msg);
  }
}

void Node::enter_view(View v, bool announce) {
  // An announced entry sends lead(v) this process's view-v share, and a
  // chained core entering v sends lead(v) its NewView(v): one message
  // carries both. The NewView the core sends lead(v) during on_enter_view
  // is held for the share (outbound), which is signed only after the
  // entry's observers ran, so the sync span for v opens before the share
  // is signed and sent, as it did when the share left on its own. The
  // saved slot keeps an entry nested in this one (a QC taken in during
  // on_enter_view) from taking this entry's NewView.
  const Announcement outer = std::exchange(announcing_, Announcement{announce ? v : -1, nullptr});
  if (core_) core_->on_enter_view(v);
  MessagePtr new_view = std::exchange(announcing_, outer).new_view;
  if (observers_.on_view_entered) observers_.on_view_entered(sim_->now(), v, id_);
  behavior_->on_view_entered(sim_->now(), v, toolkit());
  if (!announce) return;
  if (observers_.on_sync_started) {
    observers_.on_sync_started(sim_->now(), pacemaker_->current_view(), v, id_);
  }
  crypto::PartialSig share = crypto::threshold_share(signer_, pacemaker::view_msg_statement(v));
  if (new_view == nullptr) {
    outbound(pacemaker_->leader_of(v), std::make_shared<pacemaker::ViewMsg>(v, share));
    return;
  }
  const auto& held = static_cast<const consensus::NewViewMsg&>(*new_view);
  ++riding_shares_;
  outbound(pacemaker_->leader_of(v),
           std::make_shared<consensus::NewViewMsg>(v, held.high_qc(), held.requests(), share));
}

void Node::outbound(ProcessId to, MessagePtr msg) {
  if (announcing_.view >= 0 && announcing_.new_view == nullptr &&
      msg->type_id() == consensus::kNewView &&
      static_cast<const consensus::NewViewMsg&>(*msg).view() == announcing_.view &&
      to == pacemaker_->leader_of(announcing_.view)) {
    announcing_.new_view = std::move(msg);  // leaves with the share (enter_view)
    return;
  }
  if (!behavior_->allow_send(sim_->now(), to, *msg)) return;
  network_->send(id_, to, std::move(msg));
}

void Node::outbound_broadcast(const MessagePtr& msg) {
  // Per-recipient so the Byzantine filter can act per destination; the
  // paper's broadcast convention (include self) is preserved.
  for (ProcessId to = 0; to < params_.n; ++to) outbound(to, msg);
}

}  // namespace lumiere::runtime
