#include "runtime/node_host.h"

#include <unistd.h>

#include <utility>

#include "consensus/messages.h"
#include "dissem/messages.h"
#include "pacemaker/messages.h"
#include "runtime/spec_io.h"
#include "sync/messages.h"

namespace lumiere::runtime {

MessageCodec wire_codec(const crypto::Authenticator& auth) {
  MessageCodec codec;
  consensus::register_consensus_messages(codec);
  pacemaker::register_pacemaker_messages(codec);
  dissem::register_dissem_messages(codec);
  sync::register_sync_messages(codec);
  // Frames carry the selected scheme's signature geometry; decoders
  // need it to slice signature bytes out of the stream.
  codec.set_sig_wire(auth.wire_spec());
  return codec;
}

std::unique_ptr<workload::NodeWorkload> make_workload(const Scenario& scenario, ProcessId id,
                                                      sim::Simulator* sim,
                                                      const NodeSinks& sinks,
                                                      std::uint32_t incarnation) {
  const NodeSpec& spec = scenario.nodes[id];
  if (!spec.workload) return nullptr;
  workload::NodeWorkload::Hooks hooks;
  hooks.on_request_committed = [tracer = sinks.tracer, id](TimePoint, Duration) {
    tracer->note_request_committed(id);
  };
  hooks.on_queue_depth = [metrics = sinks.metrics, tracer = sinks.tracer, id](TimePoint at,
                                                                             std::size_t depth) {
    if (metrics != nullptr) metrics->record_queue_depth(at, id, depth);
    tracer->note_mempool_depth(id, depth);
  };
  hooks.on_emptied = [tracer = sinks.tracer, id] { tracer->note_mempool_depth(id, 0); };
  return std::make_unique<workload::NodeWorkload>(sim, id, *spec.workload, scenario.seed,
                                                  std::move(hooks), incarnation);
}

NodeConfig make_node_config(const Scenario& scenario, ProcessId id,
                            workload::NodeWorkload* workload, const NodeSinks& sinks) {
  const NodeSpec& spec = scenario.nodes[id];
  NodeConfig config;
  config.protocol = spec.protocol;
  config.join_time = spec.join_time;
  config.clock_drift_ppm = spec.clock_drift_ppm;
  config.payload_provider = spec.payload_provider;
  config.auth_ops = &sinks.tracer->auth_counters(id);
  if (workload == nullptr) return config;
  if (!scenario.dissem) {
    // The workload engine supplies the proposals: every replica forwards
    // each view's admitted requests to its leader on its NewView.
    config.forwarding = workload->forwarding();
    return config;
  }
  // Dissemination interposes between mempool and consensus: batches
  // lease to the disseminator (which certifies availability and hands
  // consensus fixed-size references) and committed references deliver
  // back into the workload's client accounting.
  config.dissem = true;
  config.dissem_hooks.lease_batch = [workload](std::vector<std::uint8_t>& payload) {
    return workload->lease_dissem_batch(payload);
  };
  config.dissem_hooks.ack_batch = [workload](std::uint64_t token) {
    workload->ack_dissem_batch(token);
  };
  config.dissem_hooks.deliver = [workload](TimePoint at, const std::vector<std::uint8_t>& payload) {
    workload->on_dissem_delivery(at, payload);
  };
  if (MetricsCollector* metrics = sinks.metrics; metrics != nullptr) {
    config.dissem_hooks.on_batch_certified = [metrics](TimePoint at, Duration latency) {
      metrics->record_batch_certified(at, latency);
    };
  }
  return config;
}

NodeObservers make_observers(const Scenario& scenario, workload::NodeWorkload* workload,
                             const NodeSinks& sinks) {
  MetricsCollector* metrics = sinks.metrics;
  obs::SyncTracer* tracer = sinks.tracer;
  sim::TraceLog* trace = sinks.trace;
  // The tracer is thread-safe: on TCP a node's driver thread is the sole
  // writer of its record (obs/tracer.h threading note).
  NodeObservers observers;
  observers.on_qc_formed = [metrics, trace](TimePoint at, View view, ProcessId node) {
    if (metrics != nullptr) metrics->record_qc_formed(at, view, node);
    if (trace != nullptr) trace->record(at, sim::TraceKind::kQcFormed, node, view);
  };
  observers.on_view_entered = [tracer, trace](TimePoint at, View view, ProcessId node) {
    if (trace != nullptr) trace->record(at, sim::TraceKind::kViewEntered, node, view);
    if (tracer->on_view_entered(node, at, view).has_value() && trace != nullptr) {
      trace->record(at, sim::TraceKind::kSyncCompleted, node, view);
    }
  };
  observers.on_sync_started = [tracer, trace](TimePoint at, View current, View target,
                                              ProcessId node) {
    tracer->on_sync_started(node, at, current, target);
    if (trace != nullptr) trace->record(at, sim::TraceKind::kSyncStarted, node, target);
  };
  // With dissemination on, the Node's commit path routes the payload
  // through its disseminator, which invokes the workload `deliver` hook
  // itself — feeding on_commit here too would double-count.
  workload::NodeWorkload* fed = scenario.dissem ? nullptr : workload;
  observers.on_commit = [fed, tracer, trace](TimePoint at, const consensus::Block& block,
                                             ProcessId node) {
    if (trace != nullptr) trace->record(at, sim::TraceKind::kCommitted, node, block.view());
    tracer->note_commit(node, block.view());
    if (fed != nullptr) fed->on_commit(at, block.view(), block.payload());
  };
  return observers;
}

void SendTap::on_send(TimePoint at, ProcessId from, ProcessId /*to*/, const Message& msg) {
  const std::size_t wire = msg.wire_size();
  if (metrics_ != nullptr) metrics_->record_send(at, from, msg, wire);
  tracer_->note_sent(from, msg.msg_class(), wire);
}

NodeHost::NodeHost(const Scenario& scenario, ProcessId id, const crypto::Authenticator& auth,
                   NodeSinks sinks, std::unique_ptr<adversary::Behavior> behavior,
                   Options options)
    : id_(id),
      n_(scenario.params.n),
      sinks_(sinks),
      options_(options),
      tap_(sinks),
      adapter_(id, n_, scenario.tcp_base_port, wire_codec(auth)),
      driver_(&sim_, &adapter_.endpoint()) {
  LUMIERE_ASSERT_MSG(sinks_.tracer != nullptr, "NodeHost needs a tracer");
  // Deterministic per-node jitter/drop streams: both derive from the
  // scenario seed, so a replayed scenario shapes traffic identically.
  adapter_.endpoint().set_reconnect_backoff(transport::BackoffPolicy{},
                                            scenario.seed ^ (0x9e3779b97f4a7c15ULL * (id + 1)));
  adapter_.set_shaping(&sim_, scenario.seed ^ (0xd3833e804f4c574bULL * (id + 1)));
  adapter_.set_observer(&tap_);
  // The workload engine lives on the private simulator: every touch
  // (submission, drain, commit) happens on the driver thread.
  workload_ = make_workload(scenario, id, &sim_, sinks_, options_.incarnation);
  node_ = std::make_unique<Node>(scenario.params, id, &sim_, &adapter_, &auth,
                                 make_node_config(scenario, id, workload_.get(), sinks_),
                                 make_observers(scenario, workload_.get(), sinks_),
                                 std::move(behavior));
  if (node_->is_byzantine()) sinks_.tracer->note_byzantine(id_);

  // Each node applies a fault transition on its own simulator when its
  // wall clock reaches the event instant — best-effort: the nodes cut a
  // link within one another's pacing jitter rather than atomically.
  for (const sim::FaultEvent& event : scenario.schedule.events) {
    sim_.schedule_at(event.at, [this, event] { apply_fault(event); });
  }

  if (scenario.pipeline.enabled) {
    // Staged receive path: the endpoint hands raw frames to the worker
    // pool; the pump drains verified results back on the driver thread,
    // seeding the memo before delivery so the consensus core skips
    // re-verification (runtime/pipeline.h).
    pipeline_ = std::make_unique<VerifyPipeline>(&auth, wire_codec(auth), scenario.pipeline);
    adapter_.endpoint().set_raw_sink(
        [pipeline = pipeline_.get()](ProcessId from, std::span<const std::uint8_t> payload) {
          return pipeline->submit(from, payload);
        });
    pipeline_->start();
  }
  // Admin commands apply on the driver thread too: the pump is the only
  // place that thread surfaces between simulator slices.
  driver_.set_pump([this] {
    if (pipeline_ != nullptr) {
      pipeline_->drain([this](VerifyPipeline::Result&& result) {
        for (const crypto::Digest& fp : result.fingerprints) node_->verify_memo().remember(fp);
        adapter_.deliver_decoded(result.from, result.msg);
      });
    }
    gate_.drain([this](const obs::AdminCommand& command) { return apply_admin(command); });
  });

  if (scenario.obs.status_base_port != 0) {
    obs::StatusServer::AdminHooks hooks;
    if (!scenario.obs.admin_token.empty()) {
      hooks.token = scenario.obs.admin_token;
      hooks.submit = [this](const obs::AdminCommand& command) {
        // Bounded: the driver only drains while it runs, so a session
        // issued between run_for slices must time out rather than pin
        // its server thread.
        return gate_.submit(command, Duration::millis(2000));
      };
    }
    status_server_ = std::make_unique<obs::StatusServer>(
        static_cast<std::uint16_t>(scenario.obs.status_base_port + id), [this] { return status(); },
        std::move(hooks));
  }
}

void NodeHost::start() {
  if (started_) return;
  started_ = true;
  if (workload_ != nullptr) workload_->start();
  node_->start();
}

void NodeHost::apply_fault(const sim::FaultEvent& event) {
  switch (event.kind) {
    case sim::FaultKind::kPartition: {
      // Same group/cut rule as sim::Network (sim/fault_schedule.h), so
      // the two transports cannot disagree on what a cut means.
      const std::vector<std::uint32_t> group = sim::partition_group_of(event.groups, n_);
      for (ProcessId peer = 0; peer < n_; ++peer) {
        adapter_.set_partition_cut(peer, sim::partition_cuts(group, id_, peer));
      }
      break;
    }
    case sim::FaultKind::kHeal:
      adapter_.clear_partition();
      break;
    case sim::FaultKind::kCrash:
    case sim::FaultKind::kLeave:
      if (id_ == event.node) {
        adapter_.set_self_down(true);
        // A crashed process's worker pool dies with it: join the workers
        // and discard in-flight frames (this runs on the driver thread,
        // so no submit() races the stop).
        if (pipeline_ != nullptr) pipeline_->stop();
      } else {
        adapter_.set_peer_down(event.node, true);
      }
      break;
    case sim::FaultKind::kRecover:
    case sim::FaultKind::kRejoin:
      if (id_ == event.node) {
        adapter_.set_self_down(false);
        if (pipeline_ != nullptr) pipeline_->start();
      } else {
        adapter_.set_peer_down(event.node, false);
      }
      break;
    case sim::FaultKind::kAsymPartition: {
      // Receiver-side gate: nodes in the to-group drop frames arriving
      // from the from-group (the senders' outbound half keeps flowing the
      // other way, matching the sim's one-way semantics). Set for every
      // peer so a new asym cut replaces the previous one.
      std::vector<bool> in_from(n_, false);
      for (const ProcessId sender : event.groups[0]) {
        if (sender < n_) in_from[sender] = true;
      }
      bool receiver = false;
      for (const ProcessId target : event.groups[1]) receiver = receiver || target == id_;
      for (ProcessId peer = 0; peer < n_; ++peer) {
        adapter_.set_inbound_cut(peer, receiver && in_from[peer]);
      }
      break;
    }
    case sim::FaultKind::kBehaviorChange:
      // Only the target node swaps; the Node is confined to this thread.
      if (id_ != event.node) break;
      node_->set_behavior(adversary::make_behavior(event.behavior));
      if (node_->is_byzantine()) sinks_.tracer->note_byzantine(id_);
      break;
    case sim::FaultKind::kDelayChange:
    case sim::FaultKind::kLinkDelay:
      break;  // simulator-only; ScenarioBuilder::validate() rejects these
  }
}

std::string NodeHost::apply_admin(const obs::AdminCommand& command) {
  switch (command.kind) {
    case obs::AdminKind::kBehavior: {
      auto behavior = adversary::make_behavior(command.behavior);
      if (behavior == nullptr) return "ERR unknown behavior '" + command.behavior + "'";
      node_->set_behavior(std::move(behavior));
      // Sticky, like the node's own flag: an ever-Byzantine node never
      // re-enters the honest accounting.
      if (node_->is_byzantine()) sinks_.tracer->note_byzantine(id_);
      return "OK";
    }
    case obs::AdminKind::kDrop:
      if (command.peer >= n_) return "ERR peer out of range";
      adapter_.set_link_drop(command.peer, command.probability);
      return "OK";
    case obs::AdminKind::kDelay:
      if (command.peer >= n_) return "ERR peer out of range";
      adapter_.set_link_delay(command.peer, command.delay);
      return "OK";
    case obs::AdminKind::kIsolate:
      adapter_.set_isolated(true);
      return "OK";
    case obs::AdminKind::kHeal:
      adapter_.clear_shaping();
      adapter_.clear_partition();
      return "OK";
    case obs::AdminKind::kCrash:
      if (!options_.allow_crash) return "ERR crash disabled";
      // Abrupt, destructor-free exit — the crash the soak's recovery
      // oracle is about. The admin session never gets a reply; the
      // orchestrator treats the dropped connection as success.
      ::_exit(137);
    case obs::AdminKind::kLedger:
      return render_ledger(node_->ledger());
  }
  return "ERR unhandled";
}

obs::NodeStatus NodeHost::status() const {
  // The node belongs to the driver thread: serve the tracer's relaxed
  // record instead of touching protocol state. No safe clock off that
  // thread either, so the open span's duration reads 0 here (its costs
  // are live).
  obs::NodeStatus status = sinks_.tracer->status(id_, TimePoint::origin());
  if (pipeline_ != nullptr) {
    const VerifyPipeline::Stats stats = pipeline_->stats();
    status.pipeline_queue_depth = stats.frames_in - stats.frames_out;
  }
  return status;
}

}  // namespace lumiere::runtime
