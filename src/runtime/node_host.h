// NodeHost: one replica's realtime stack over localhost TCP.
//
// Both owners of TCP replicas build them here and nowhere else: the
// in-process Cluster (runtime/cluster.h) holds n hosts and drives each on
// its own thread; SoloNodeRuntime (runtime/solo_node.h) holds one per
// lumiere_node process. A host owns:
//
//   * a private Simulator paced against the wall clock (1 simulated us =
//     1 real us) by a RealtimeDriver;
//   * a TcpTransportAdapter with seeded reconnect backoff and shaping;
//   * the node's workload engine (if the scenario gives it clients);
//   * the Node itself, and an optional decode+verify pool (pipeline.h);
//   * an AdminGate, plus a StatusServer when ObsSpec::status_base_port
//     is set.
//
// Except status() and status_port(), call a host only from the thread
// that drives it, or between its run_until calls. Fault events and admin
// commands apply on that thread too: the first from the private
// simulator, the second from the driver pump.
//
// The free functions under it wire a node's workload, config and
// observers, and SendTap is the one place a sent message is observed.
// The simulator path of Cluster uses them as well, so both transports
// feed the same sinks the same way.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "adversary/behaviors.h"
#include "crypto/authenticator.h"
#include "obs/admin.h"
#include "obs/status_server.h"
#include "obs/tracer.h"
#include "runtime/metrics.h"
#include "runtime/node.h"
#include "runtime/pipeline.h"
#include "runtime/scenario.h"
#include "sim/fault_schedule.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "transport/realtime.h"
#include "workload/engine.h"

namespace lumiere::runtime {

/// The codec every real-byte path uses: all four message families
/// (consensus, pacemaker, dissemination, block sync), framed with
/// `auth`'s signature geometry.
[[nodiscard]] MessageCodec wire_codec(const crypto::Authenticator& auth);

/// Where one node's events go. The tracer holds the node's status record
/// and span meters on both transports, so it is required; the TraceLog
/// exists only on the simulator, and a standalone replica process keeps
/// no MetricsCollector. Sends reach `metrics` and `tracer` through a
/// SendTap on the transport, every other event through make_observers
/// and the workload hooks.
struct NodeSinks {
  MetricsCollector* metrics = nullptr;
  obs::SyncTracer* tracer = nullptr;
  sim::TraceLog* trace = nullptr;
};

/// The transport's send tap: the Cluster installs one on sim::Network,
/// each NodeHost one on its TcpTransportAdapter. Per copy a node puts on
/// the wire to another process it reads wire_size() once and charges
/// `metrics` (honest senders only) and the sender's tracer meters.
class SendTap final : public sim::NetworkObserver {
 public:
  explicit SendTap(const NodeSinks& sinks) : metrics_(sinks.metrics), tracer_(sinks.tracer) {}
  SendTap(const SendTap&) = delete;
  SendTap& operator=(const SendTap&) = delete;

  void on_send(TimePoint at, ProcessId from, ProcessId to, const Message& msg) override;

 private:
  MetricsCollector* metrics_;
  obs::SyncTracer* tracer_;
};

/// Node `id`'s workload engine on `sim`; null when the scenario gives the
/// node no clients. `incarnation` picks fresh client ids after a restart.
[[nodiscard]] std::unique_ptr<workload::NodeWorkload> make_workload(
    const Scenario& scenario, ProcessId id, sim::Simulator* sim, const NodeSinks& sinks,
    std::uint32_t incarnation = 0);
/// Node `id`'s NodeConfig: its NodeSpec, the tracer's op counters, and
/// `workload`'s forwarding or dissemination hooks.
[[nodiscard]] NodeConfig make_node_config(const Scenario& scenario, ProcessId id,
                                          workload::NodeWorkload* workload,
                                          const NodeSinks& sinks);
/// The observers that feed `sinks` and `workload` from one node.
[[nodiscard]] NodeObservers make_observers(const Scenario& scenario,
                                           workload::NodeWorkload* workload,
                                           const NodeSinks& sinks);

class NodeHost {
 public:
  struct Options {
    /// Admin CRASH performs ::_exit (abrupt, no destructors — the point
    /// of the soak's crash-recovery probe). Default off so an in-process
    /// cluster can never kill its harness.
    bool allow_crash = false;
    /// Which lifetime of this node's process this is: 0 at first start,
    /// then 1, 2, ... on each restart. The workload gives every
    /// incarnation fresh client ids (workload/engine.h); a restart that
    /// reused the last incarnation's would have its requests refused as
    /// already committed.
    std::uint32_t incarnation = 0;
  };

  /// Builds node `id` of `scenario`. Borrows `auth` and `sinks.tracer`
  /// (both required) and the optional `sinks.metrics` (threaded mode);
  /// all must outlive the host. Schedules the
  /// scenario's fault events on the private simulator. Throws
  /// std::runtime_error when a port cannot be bound.
  NodeHost(const Scenario& scenario, ProcessId id, const crypto::Authenticator& auth,
           NodeSinks sinks, std::unique_ptr<adversary::Behavior> behavior, Options options);

  NodeHost(const NodeHost&) = delete;
  NodeHost& operator=(const NodeHost&) = delete;

  /// Starts the workload, then the protocol (idempotent).
  void start();
  /// Drives the host until `deadline` of real time (see RealtimeDriver).
  void run_until(std::chrono::steady_clock::time_point deadline) {
    driver_.run_until(deadline);
  }

  /// Applies one fault-schedule transition to this node's links, pool or
  /// behavior — the best-effort realtime analogue of sim::Network.
  void apply_fault(const sim::FaultEvent& event);
  /// Applies one admin command (obs/admin.h) and returns the reply line.
  [[nodiscard]] std::string apply_admin(const obs::AdminCommand& command);
  /// The snapshot the status endpoint serves. Safe from any thread: it
  /// reads the tracer's record and the verify pool, never the node.
  [[nodiscard]] obs::NodeStatus status() const;

  [[nodiscard]] Node& node() noexcept { return *node_; }
  [[nodiscard]] const Node& node() const noexcept { return *node_; }
  [[nodiscard]] workload::NodeWorkload* workload() const noexcept { return workload_.get(); }
  [[nodiscard]] VerifyPipeline* pipeline() const noexcept { return pipeline_.get(); }
  [[nodiscard]] TimePoint now() const noexcept { return sim_.now(); }
  /// Bytes this node framed onto its sockets (TcpEndpoint::bytes_sent).
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept {
    return adapter_.endpoint().bytes_sent();
  }
  /// This node's traffic to other processes (driver thread, or between
  /// runs).
  [[nodiscard]] transport::SendCounts send_counts() const noexcept {
    return adapter_.send_counts();
  }
  /// 0 when status endpoints are off.
  [[nodiscard]] std::uint16_t status_port() const noexcept {
    return status_server_ != nullptr ? status_server_->port() : 0;
  }

 private:
  ProcessId id_;
  std::uint32_t n_;
  NodeSinks sinks_;
  Options options_;
  bool started_ = false;
  sim::Simulator sim_;
  SendTap tap_;
  transport::TcpTransportAdapter adapter_;
  std::unique_ptr<workload::NodeWorkload> workload_;
  std::unique_ptr<Node> node_;
  transport::RealtimeDriver driver_;
  std::unique_ptr<VerifyPipeline> pipeline_;
  obs::AdminGate gate_;
  /// Last: its session threads snapshot and submit into everything above.
  std::unique_ptr<obs::StatusServer> status_server_;
};

}  // namespace lumiere::runtime
