// Cluster: builds and runs a full n-processor deployment from a resolved
// Scenario (runtime/scenario.h). This is the library's main entry point
// for examples, tests and benchmarks — construct one via ScenarioBuilder.
//
// Two transports behind the same MessageTransport seam:
//   * TransportKind::kSim — every node shares one deterministic Simulator
//     and one adversary-controlled sim::Network (metrics, traces and the
//     partial-synchrony envelope all live here);
//   * TransportKind::kTcp — the cluster is n NodeHosts (runtime/node_host.h),
//     each a private Simulator paced against the wall clock on its own
//     thread, exchanging real framed bytes over localhost TCP. The hosts
//     share the cluster's authenticator, span tracer (which holds each
//     node's status record) and MetricsCollector (threaded mode, so full
//     protocol metrics on both transports); traces and delay adversaries
//     remain simulator-only.
//
// Both transports wire each node's workload, config and observers through
// the same functions (node_host.h), so they feed the same sinks.
#pragma once

#include <memory>
#include <vector>

#include "core/honest_gap_tracker.h"
#include "runtime/node_host.h"
#include "sim/network.h"
#include "workload/report.h"

namespace lumiere::runtime {

class Cluster {
 public:
  /// Builds every node from `scenario` (normally produced by
  /// ScenarioBuilder::scenario(), which validates first).
  explicit Cluster(Scenario scenario);
  /// Convenience: validate + resolve + build in one step.
  explicit Cluster(const ScenarioBuilder& builder) : Cluster(builder.scenario()) {}

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Starts every node (idempotent guard inside) — run_* call it lazily.
  void start();

  /// Advances the deployment by `d`: simulated time on the sim transport,
  /// wall-clock time (1 simulated us = 1 real us) on the TCP transport.
  void run_for(Duration d);
  void run_until(TimePoint t);

  [[nodiscard]] TransportKind transport() const noexcept { return scenario_.transport; }
  /// The shared simulator (sim transport only).
  [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }
  /// The adversary-controlled network (sim transport only; aborts on a
  /// TCP cluster rather than dereferencing null).
  [[nodiscard]] sim::Network& network() noexcept {
    LUMIERE_ASSERT_MSG(network_ != nullptr, "Cluster::network() is sim-transport-only");
    return *network_;
  }
  [[nodiscard]] MetricsCollector& metrics() noexcept { return *metrics_; }
  [[nodiscard]] const MetricsCollector& metrics() const noexcept { return *metrics_; }
  [[nodiscard]] Node& node(ProcessId id) { return *nodes_.at(id); }
  [[nodiscard]] const Node& node(ProcessId id) const { return *nodes_.at(id); }
  [[nodiscard]] std::uint32_t n() const noexcept { return scenario_.params.n; }
  [[nodiscard]] const Scenario& scenario() const noexcept { return scenario_; }
  /// The cluster's authenticator scheme instance (key registry +
  /// sign/verify primitives), selected by Scenario::auth_scheme.
  [[nodiscard]] const crypto::Authenticator& auth() const noexcept { return *auth_; }
  /// Node `id`'s staged verification pipeline; nullptr unless the
  /// scenario enabled one (TCP transport).
  [[nodiscard]] VerifyPipeline* pipeline(ProcessId id) {
    return id < hosts_.size() ? hosts_[id]->pipeline() : nullptr;
  }

  /// A node counts Byzantine if it starts non-honest, is scheduled to
  /// turn non-honest, or ever ran a non-honest behavior (an admin
  /// BEHAVIOR flip on TCP). TCP: read between run_for slices.
  [[nodiscard]] std::vector<ProcessId> honest_ids() const;
  [[nodiscard]] std::vector<bool> byzantine_mask() const;

  /// Honest-gap instrumentation over the honest processors' clocks.
  [[nodiscard]] core::HonestGapTracker honest_gap_tracker() const;

  /// Structured event trace (view entries, decisions, commits).
  [[nodiscard]] const sim::TraceLog& trace() const noexcept { return trace_; }
  [[nodiscard]] sim::TraceLog& trace() noexcept { return trace_; }

  /// The view-sync span tracer and per-node status record
  /// (obs/tracer.h); never null, on both transports. TCP: query between
  /// run_for slices or accept point-in-time reads.
  [[nodiscard]] obs::SyncTracer* sync_tracer() noexcept { return &tracer_; }
  [[nodiscard]] const obs::SyncTracer* sync_tracer() const noexcept { return &tracer_; }

  /// Point-in-time status snapshot for node `id`, built from the tracer's
  /// record — the same builder the TCP status endpoint serves from
  /// (NodeHost::status, which adds the pipeline depth).
  [[nodiscard]] obs::NodeStatus node_status(ProcessId id) const;

  /// The TCP port node `id`'s status endpoint listens on; 0 when status
  /// endpoints are not enabled (ObsSpec::status_base_port == 0).
  [[nodiscard]] std::uint16_t status_port(ProcessId id) const noexcept {
    return id < hosts_.size() ? hosts_[id]->status_port() : 0;
  }

  /// Smallest current view among honest processors (progress probe).
  [[nodiscard]] View min_honest_view() const;
  /// Largest current view among honest processors.
  [[nodiscard]] View max_honest_view() const;

  /// One node's workload engine (nullptr when that node runs no
  /// client-driven workload). Works on both transports.
  [[nodiscard]] workload::NodeWorkload* node_workload(ProcessId id) {
    return workloads_.at(id);
  }
  [[nodiscard]] const workload::NodeWorkload* node_workload(ProcessId id) const {
    return workloads_.at(id);
  }
  /// Real bytes every node framed onto its sockets (8-byte frame headers
  /// included); 0 on the simulator, whose byte counters are modeled
  /// (MetricsCollector). TCP: read between run_for slices.
  [[nodiscard]] std::uint64_t tcp_bytes_sent() const;

  /// Merged client-side accounting across every node. TCP transport:
  /// call between run_for slices (driver threads are joined), never
  /// concurrently with one.
  [[nodiscard]] workload::Report workload_report() const;

 private:
  void build_sim_cluster(std::vector<std::unique_ptr<adversary::Behavior>> behaviors);
  void build_tcp_cluster(std::vector<std::unique_ptr<adversary::Behavior>> behaviors);
  /// Schedules the fault script on the shared simulator (sim transport;
  /// each NodeHost schedules its own on TCP).
  void schedule_faults_sim();
  [[nodiscard]] bool byzantine(ProcessId id) const {
    return scheduled_byzantine_[id] || nodes_[id]->is_byzantine();
  }

  Scenario scenario_;
  sim::Simulator sim_;  ///< shared simulator (sim transport).
  std::unique_ptr<crypto::Authenticator> auth_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<MetricsCollector> metrics_;
  sim::TraceLog trace_;
  /// Initially non-honest nodes plus every target of a scheduled
  /// non-honest behavior change, fixed at construction.
  std::vector<bool> scheduled_byzantine_;
  /// Span tracer and per-node status record (obs/tracer.h). Declared
  /// before the nodes and hosts whose threads feed and read it.
  obs::SyncTracer tracer_;
  /// Sim transport: the network's send tap, charging metrics_ and tracer_.
  std::unique_ptr<SendTap> tap_;
  /// Sim transport: the nodes and workload engines on the shared simulator.
  std::vector<std::unique_ptr<Node>> sim_nodes_;
  std::vector<std::unique_ptr<workload::NodeWorkload>> sim_workloads_;
  /// TCP transport: one host per node, each driven on its own thread.
  std::vector<std::unique_ptr<NodeHost>> hosts_;
  /// Every node and workload engine (null: no clients), whoever owns it.
  std::vector<Node*> nodes_;
  std::vector<workload::NodeWorkload*> workloads_;
  bool started_ = false;
};

}  // namespace lumiere::runtime
