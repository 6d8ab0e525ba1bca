// SoloNodeRuntime: ONE replica process's slice of a TCP cluster.
//
// The in-process Cluster (runtime/cluster.h) owns all n nodes and drives
// them on n threads — ideal for tests, but every node still dies with the
// harness. The soak harness (tools/soak) instead runs n separate
// lumiere_node processes, each hosting exactly one node; kill -9 then
// restart is then a *real* crash-recovery: the process loses all state
// and must rejoin over the wire, re-sync views and resume committing.
//
// Construction resolves the shared ClusterSpec (runtime/spec_io.h)
// through the same ScenarioBuilder path as Cluster, then builds only
// nodes[id]'s stack: private Simulator, TcpTransportAdapter (with
// reconnect backoff + runtime shaping), workload engine, optional verify
// pipeline, span tracer, status board and the status/admin endpoint.
// Because every process resolves the same spec, seeds, keys and leader
// schedules agree byte-for-byte with no runtime coordination.
#pragma once

#include <atomic>
#include <memory>

#include "crypto/authenticator.h"
#include "obs/admin.h"
#include "obs/status.h"
#include "obs/status_server.h"
#include "obs/tracer.h"
#include "runtime/node.h"
#include "runtime/pipeline.h"
#include "runtime/spec_io.h"
#include "sim/simulator.h"
#include "transport/realtime.h"
#include "workload/engine.h"

namespace lumiere::runtime {

class SoloNodeRuntime {
 public:
  struct Options {
    /// Admin CRASH performs ::_exit (abrupt, no destructors — the point
    /// of the soak's crash-recovery probe). Default off so an in-process
    /// test cluster of SoloNodeRuntimes can never kill its harness.
    bool allow_crash = false;
    /// Which lifetime of this node's process this is: 0 at first start,
    /// then 1, 2, ... on each restart. The workload gives every
    /// incarnation fresh client ids (workload/engine.h); a restart that
    /// reused the last incarnation's would have its requests refused as
    /// already committed.
    std::uint32_t incarnation = 0;
  };

  /// Builds node `id`'s stack from the cluster-wide spec. Throws
  /// std::invalid_argument (bad spec) or std::runtime_error (ports).
  SoloNodeRuntime(const ClusterSpec& spec, ProcessId id, Options options);
  SoloNodeRuntime(const ClusterSpec& spec, ProcessId id)
      : SoloNodeRuntime(spec, id, Options()) {}
  ~SoloNodeRuntime();

  SoloNodeRuntime(const SoloNodeRuntime&) = delete;
  SoloNodeRuntime& operator=(const SoloNodeRuntime&) = delete;

  /// Starts the workload + protocol (idempotent); run_for calls it lazily.
  void start();

  /// Drives the node for `wall` milliseconds of real time on the calling
  /// thread (1 simulated microsecond = 1 wall microsecond). Admin
  /// commands submitted by status sessions apply inside this call, on
  /// this thread.
  void run_for(std::chrono::milliseconds wall);

  [[nodiscard]] ProcessId id() const noexcept { return id_; }
  [[nodiscard]] Node& node() noexcept { return *node_; }
  [[nodiscard]] const Node& node() const noexcept { return *node_; }
  [[nodiscard]] std::uint16_t status_port() const noexcept {
    return status_server_ != nullptr ? status_server_->port() : 0;
  }
  /// The same snapshot the status endpoint serves.
  [[nodiscard]] obs::NodeStatus status() const;

 private:
  [[nodiscard]] std::string apply_admin(const obs::AdminCommand& command);

  ClusterSpec spec_;
  ProcessId id_;
  Options options_;
  bool started_ = false;

  std::unique_ptr<crypto::Authenticator> auth_;
  std::unique_ptr<obs::SyncTracer> tracer_;
  std::unique_ptr<obs::StatusBoard> board_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<transport::TcpTransportAdapter> adapter_;
  std::unique_ptr<workload::NodeWorkload> workload_;
  std::unique_ptr<Node> node_;
  std::unique_ptr<transport::RealtimeDriver> driver_;
  std::unique_ptr<VerifyPipeline> pipeline_;
  std::unique_ptr<obs::AdminGate> admin_gate_;
  /// Last: its session threads snapshot everything above.
  std::unique_ptr<obs::StatusServer> status_server_;
};

}  // namespace lumiere::runtime
