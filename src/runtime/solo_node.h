// SoloNodeRuntime: ONE replica process's slice of a TCP cluster.
//
// The in-process Cluster (runtime/cluster.h) owns all n nodes and drives
// them on n threads — ideal for tests, but every node still dies with the
// harness. The soak harness (tools/soak) instead runs n separate
// lumiere_node processes, each hosting exactly one node; kill -9 then
// restart is then a *real* crash-recovery: the process loses all state
// and must rejoin over the wire, re-sync views and resume committing.
//
// Construction takes the whole cluster's resolved Scenario — what
// ScenarioBuilder(parse_spec(file)).scenario() gives for the shared spec
// file (runtime/spec_io.h), the same path a Cluster is built on — then
// builds the per-process pieces a Cluster would share (authenticator,
// span tracer with the node's status record) and one NodeHost (runtime/node_host.h) for
// nodes[id], the same stack each TCP Cluster node runs. Because every
// process resolves the same spec, seeds, keys and leader schedules agree
// byte-for-byte with no runtime coordination.
#pragma once

#include <chrono>
#include <memory>

#include "crypto/authenticator.h"
#include "obs/tracer.h"
#include "runtime/node_host.h"
#include "runtime/scenario.h"

namespace lumiere::runtime {

class SoloNodeRuntime {
 public:
  /// allow_crash (admin CRASH may _exit) and incarnation (restart count).
  using Options = NodeHost::Options;

  /// Builds node `id`'s stack of the cluster-wide scenario. Throws
  /// std::invalid_argument (id out of range) or std::runtime_error (ports).
  SoloNodeRuntime(const Scenario& scenario, ProcessId id, Options options);
  SoloNodeRuntime(const Scenario& scenario, ProcessId id)
      : SoloNodeRuntime(scenario, id, Options()) {}

  SoloNodeRuntime(const SoloNodeRuntime&) = delete;
  SoloNodeRuntime& operator=(const SoloNodeRuntime&) = delete;

  /// Starts the workload + protocol (idempotent); run_for calls it lazily.
  void start() { host_->start(); }

  /// Drives the node for `wall` milliseconds of real time on the calling
  /// thread (1 simulated microsecond = 1 wall microsecond). Admin
  /// commands submitted by status sessions apply inside this call, on
  /// this thread.
  void run_for(std::chrono::milliseconds wall);

  [[nodiscard]] ProcessId id() const noexcept { return id_; }
  [[nodiscard]] Node& node() noexcept { return host_->node(); }
  [[nodiscard]] const Node& node() const noexcept { return host_->node(); }
  [[nodiscard]] std::uint16_t status_port() const noexcept { return host_->status_port(); }
  /// The same snapshot the status endpoint serves.
  [[nodiscard]] obs::NodeStatus status() const { return host_->status(); }

 private:
  ProcessId id_;
  std::unique_ptr<crypto::Authenticator> auth_;
  obs::SyncTracer tracer_;
  /// Last: its threads read everything above.
  std::unique_ptr<NodeHost> host_;
};

}  // namespace lumiere::runtime
