#include "runtime/solo_node.h"

#include <unistd.h>

#include <stdexcept>
#include <utility>

#include "consensus/messages.h"
#include "dissem/messages.h"
#include "pacemaker/messages.h"
#include "sync/messages.h"

namespace lumiere::runtime {

SoloNodeRuntime::SoloNodeRuntime(const ClusterSpec& spec, ProcessId id, Options options)
    : spec_(spec), id_(id), options_(options) {
  // Resolve through the same builder path as Cluster so every process —
  // and the in-process tests — derive identical per-node stacks.
  const Scenario scenario = to_builder(spec_).scenario();
  const std::uint32_t n = scenario.params.n;
  if (id_ >= n) throw std::invalid_argument("solo node: id out of range");
  const NodeSpec& node_spec = scenario.nodes[id_];

  auth_ = crypto::make_authenticator(scenario.auth_scheme, n, scenario.seed);
  if (scenario.obs.tracer) {
    tracer_ = std::make_unique<obs::SyncTracer>(n, scenario.obs.max_spans);
  }
  board_ = std::make_unique<obs::StatusBoard>(n);

  const auto make_codec = [&] {
    MessageCodec codec;
    consensus::register_consensus_messages(codec);
    pacemaker::register_pacemaker_messages(codec);
    dissem::register_dissem_messages(codec);
    sync::register_sync_messages(codec);
    codec.set_sig_wire(auth_->wire_spec());
    return codec;
  };

  sim_ = std::make_unique<sim::Simulator>();
  adapter_ = std::make_unique<transport::TcpTransportAdapter>(id_, n, scenario.tcp_base_port,
                                                              make_codec());
  // Same deterministic per-node streams as Cluster::build_tcp_cluster.
  adapter_->endpoint().set_reconnect_backoff(
      transport::BackoffPolicy{}, scenario.seed ^ (0x9e3779b97f4a7c15ULL * (id_ + 1)));
  adapter_->set_shaping(sim_.get(), scenario.seed ^ (0xd3833e804f4c574bULL * (id_ + 1)));

  if (node_spec.workload.has_value()) {
    workload::NodeWorkload::Hooks hooks;
    hooks.on_request_committed = [this](TimePoint, Duration) {
      board_->add_request_committed(id_);
    };
    hooks.on_queue_depth = [this](TimePoint, std::size_t depth) {
      board_->set_mempool_depth(id_, depth);
    };
    workload_ = std::make_unique<workload::NodeWorkload>(sim_.get(), id_, *node_spec.workload,
                                                         scenario.seed, std::move(hooks));
  }

  NodeConfig config;
  config.protocol = node_spec.protocol;
  config.join_time = node_spec.join_time;
  config.clock_drift_ppm = node_spec.clock_drift_ppm;
  config.payload_provider = node_spec.payload_provider;
  if (tracer_ != nullptr) config.auth_ops = &tracer_->auth_counters(id_);
  if (workload_ != nullptr && scenario.dissem.has_value()) {
    workload::NodeWorkload* w = workload_.get();
    config.dissem = scenario.dissem;
    config.dissem_hooks.lease_batch = [w](std::vector<std::uint8_t>& payload) {
      return w->lease_dissem_batch(payload);
    };
    config.dissem_hooks.ack_batch = [w](std::uint64_t token) { w->ack_dissem_batch(token); };
    config.dissem_hooks.deliver = [w](TimePoint at, const std::vector<std::uint8_t>& payload) {
      w->on_dissem_delivery(at, payload);
    };
  } else if (workload_ != nullptr) {
    config.payload_provider = [w = workload_.get()](View v) { return w->make_batch(v); };
  }

  NodeObservers observers;
  observers.on_view_entered = [this](TimePoint at, View view, ProcessId node) {
    if (tracer_ != nullptr) tracer_->on_view_entered(node, at, view);
    board_->set_view(node, view);
  };
  if (tracer_ != nullptr) {
    observers.on_sync_started = [tracer = tracer_.get()](TimePoint at, View current, View target,
                                                         ProcessId node) {
      tracer->on_sync_started(node, at, current, target);
    };
    observers.on_sent = [tracer = tracer_.get()](ProcessId node, std::size_t bytes) {
      tracer->note_sent(node, bytes);
    };
  }
  const bool feed_workload = workload_ != nullptr && !scenario.dissem.has_value();
  observers.on_commit = [this, feed_workload](TimePoint at, const consensus::Block& block,
                                              ProcessId) {
    board_->add_commit(id_);
    board_->set_last_commit(id_, static_cast<std::uint64_t>(block.view()));
    if (feed_workload) workload_->on_commit(at, block.view(), block.payload());
  };

  auto behavior = node_spec.behavior ? node_spec.behavior()
                                     : std::make_unique<adversary::HonestBehavior>();
  if (behavior != nullptr && std::string(behavior->name()) != "honest") {
    board_->set_ever_byzantine(id_);
  }
  node_ = std::make_unique<Node>(scenario.params, id_, sim_.get(), adapter_.get(), auth_.get(),
                                 std::move(config), std::move(observers), std::move(behavior));
  driver_ = std::make_unique<transport::RealtimeDriver>(sim_.get(), &adapter_->endpoint());

  admin_gate_ = std::make_unique<obs::AdminGate>();
  obs::AdminGate* gate = admin_gate_.get();
  if (scenario.pipeline.enabled) {
    pipeline_ = std::make_unique<VerifyPipeline>(auth_.get(), make_codec(), scenario.pipeline);
    VerifyPipeline* pipeline = pipeline_.get();
    Node* node = node_.get();
    transport::TcpTransportAdapter* adapter = adapter_.get();
    adapter_->endpoint().set_raw_sink(
        [pipeline](ProcessId from, std::span<const std::uint8_t> payload) {
          return pipeline->submit(from, payload);
        });
    driver_->set_pump([this, pipeline, node, adapter, gate] {
      pipeline->drain([&](VerifyPipeline::Result&& result) {
        for (const crypto::Digest& fp : result.fingerprints) {
          node->verify_memo().remember(fp);
        }
        adapter->deliver_decoded(result.from, result.msg);
      });
      gate->drain([this](const obs::AdminCommand& command) { return apply_admin(command); });
    });
    pipeline_->start();
  } else {
    driver_->set_pump([this, gate] {
      gate->drain([this](const obs::AdminCommand& command) { return apply_admin(command); });
    });
  }

  if (scenario.obs.status_base_port != 0) {
    const auto port = static_cast<std::uint16_t>(scenario.obs.status_base_port + id_);
    auto snapshot = [this] { return status(); };
    if (!scenario.obs.admin_token.empty()) {
      obs::StatusServer::AdminHooks hooks;
      hooks.token = scenario.obs.admin_token;
      hooks.submit = [gate](const obs::AdminCommand& command) {
        return gate->submit(command, Duration::millis(2000));
      };
      status_server_ = std::make_unique<obs::StatusServer>(port, snapshot, std::move(hooks));
    } else {
      status_server_ = std::make_unique<obs::StatusServer>(port, snapshot);
    }
  }
}

SoloNodeRuntime::~SoloNodeRuntime() {
  // Kill the status endpoint first: its session threads snapshot the
  // tracer/board and submit into the gate, all destroyed below.
  status_server_.reset();
  if (pipeline_ != nullptr) pipeline_->stop();
}

void SoloNodeRuntime::start() {
  if (started_) return;
  started_ = true;
  if (workload_ != nullptr) workload_->start();
  node_->start();
}

void SoloNodeRuntime::run_for(std::chrono::milliseconds wall) {
  start();
  driver_->run_for(wall);
}

obs::NodeStatus SoloNodeRuntime::status() const {
  obs::NodeStatus status;
  status.node = id_;
  status.view = board_->view(id_);
  status.height = board_->height(id_);
  status.last_commit_height = board_->last_commit(id_);
  status.ever_byzantine = board_->ever_byzantine(id_);
  status.mempool_depth = board_->mempool_depth(id_);
  status.requests_committed = board_->requests_committed(id_);
  if (pipeline_ != nullptr) {
    const VerifyPipeline::Stats stats = pipeline_->stats();
    status.pipeline_queue_depth = stats.frames_in - stats.frames_out;
  }
  if (tracer_ != nullptr) {
    status.msgs_sent = tracer_->msgs_sent(id_);
    status.bytes_sent = tracer_->bytes_sent(id_);
    status.auth_ops = tracer_->auth_snapshot(id_).total();
    status.current_sync = tracer_->open_span(id_, TimePoint::origin());
    status.last_sync = tracer_->last_span(id_);
  }
  return status;
}

std::string SoloNodeRuntime::apply_admin(const obs::AdminCommand& command) {
  switch (command.kind) {
    case obs::AdminKind::kBehavior: {
      auto behavior = adversary::make_behavior(command.behavior);
      if (behavior == nullptr) return "ERR unknown behavior '" + command.behavior + "'";
      const bool byzantine = command.behavior != "honest";
      node_->set_behavior(std::move(behavior));
      if (byzantine) board_->set_ever_byzantine(id_);
      return "OK";
    }
    case obs::AdminKind::kDrop:
      if (command.peer >= spec_.n) return "ERR peer out of range";
      adapter_->set_link_drop(command.peer, command.probability);
      return "OK";
    case obs::AdminKind::kDelay:
      if (command.peer >= spec_.n) return "ERR peer out of range";
      adapter_->set_link_delay(command.peer, command.delay);
      return "OK";
    case obs::AdminKind::kIsolate:
      adapter_->set_isolated(true);
      return "OK";
    case obs::AdminKind::kHeal:
      adapter_->clear_shaping();
      adapter_->clear_partition();
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

}  // namespace lumiere::runtime
