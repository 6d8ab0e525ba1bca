#include "runtime/cluster.h"

#include <algorithm>
#include <cstring>
#include <thread>

namespace lumiere::runtime {

Cluster::Cluster(Scenario scenario)
    : scenario_(std::move(scenario)), tracer_(scenario_.params.n) {
  scenario_.params.validate();
  const std::uint32_t n = scenario_.params.n;
  LUMIERE_ASSERT_MSG(scenario_.nodes.size() == n, "Scenario must carry one NodeSpec per node");
  auth_ = crypto::make_authenticator(scenario_.auth_scheme, n, scenario_.seed);

  // Behaviors first, so the metrics collector knows who is Byzantine.
  std::vector<std::unique_ptr<adversary::Behavior>> behaviors;
  scheduled_byzantine_.assign(n, false);
  behaviors.reserve(n);
  for (ProcessId id = 0; id < n; ++id) {
    const BehaviorThunk& make = scenario_.nodes[id].behavior;
    behaviors.push_back(make ? make() : std::make_unique<adversary::HonestBehavior>());
    scheduled_byzantine_[id] = std::strcmp(behaviors.back()->name(), "honest") != 0;
  }
  // A node scheduled to turn Byzantine mid-run counts Byzantine for the
  // whole run: its QCs are never decisions and the honest accounting
  // never includes it (conservative, and fixed before the run starts).
  for (const sim::FaultEvent& event : scenario_.schedule.events) {
    if (event.kind == sim::FaultKind::kBehaviorChange && event.node < n &&
        event.behavior != "honest") {
      scheduled_byzantine_[event.node] = true;
    }
  }
  metrics_ = std::make_unique<MetricsCollector>(n, scheduled_byzantine_);
  for (ProcessId id = 0; id < n; ++id) {
    if (scheduled_byzantine_[id]) tracer_.note_byzantine(id);
  }

  if (scenario_.transport == TransportKind::kSim) {
    build_sim_cluster(std::move(behaviors));
  } else {
    build_tcp_cluster(std::move(behaviors));
  }
}

void Cluster::build_sim_cluster(std::vector<std::unique_ptr<adversary::Behavior>> behaviors) {
  const std::uint32_t n = scenario_.params.n;
  network_ = std::make_unique<sim::Network>(&sim_, n, scenario_.gst, scenario_.params.delta_cap,
                                            scenario_.delay, scenario_.seed);
  const NodeSinks sinks{metrics_.get(), &tracer_, &trace_};
  tap_ = std::make_unique<SendTap>(sinks);
  network_->set_observer(tap_.get());
  for (ProcessId id = 0; id < n; ++id) {
    sim_workloads_.push_back(make_workload(scenario_, id, &sim_, sinks));
    workloads_.push_back(sim_workloads_.back().get());
  }
  for (ProcessId id = 0; id < n; ++id) {
    sim_nodes_.push_back(std::make_unique<Node>(
        scenario_.params, id, &sim_, network_.get(), auth_.get(),
        make_node_config(scenario_, id, workloads_[id], sinks),
        make_observers(scenario_, workloads_[id], sinks), std::move(behaviors[id])));
    nodes_.push_back(sim_nodes_.back().get());
  }
  schedule_faults_sim();
}

void Cluster::build_tcp_cluster(std::vector<std::unique_ptr<adversary::Behavior>> behaviors) {
  const std::uint32_t n = scenario_.params.n;
  // Driver threads record concurrently; queries merge between run_for
  // slices (runtime/metrics.h). The trace log has no threaded mode, so
  // it stays sim-only.
  metrics_->enable_threaded();
  const NodeSinks sinks{metrics_.get(), &tracer_, nullptr};
  for (ProcessId id = 0; id < n; ++id) {
    hosts_.push_back(std::make_unique<NodeHost>(scenario_, id, *auth_, sinks,
                                                std::move(behaviors[id]), NodeHost::Options{}));
    nodes_.push_back(&hosts_.back()->node());
    workloads_.push_back(hosts_.back()->workload());
  }
}

void Cluster::schedule_faults_sim() {
  // Scheduled at construction, before any node start()/join events, so a
  // fault scripted at an instant fires before same-instant protocol
  // activity (the event queue is FIFO within one timestamp).
  for (const sim::FaultEvent& event : scenario_.schedule.events) {
    sim_.schedule_at(event.at, [this, event] {
      if (event.kind == sim::FaultKind::kBehaviorChange) {
        // Behavior lives on the node, not the network. validate()
        // rejected unknown names and out-of-range nodes; a hand-built
        // Scenario that skipped it fails loudly here.
        auto behavior = adversary::make_behavior(event.behavior);
        LUMIERE_ASSERT_MSG(event.node < nodes_.size() && behavior != nullptr,
                           "behavior-change event references an unknown node or behavior");
        nodes_[event.node]->set_behavior(std::move(behavior));
      } else {
        network_->apply(event);
      }
      trace_.record(event.at, sim::TraceKind::kCustom, event.node, -1,
                    sim::FaultSchedule::describe(event));
    });
  }
}

void Cluster::start() {
  if (started_) return;
  started_ = true;
  for (workload::NodeWorkload* workload : workloads_) {
    if (workload != nullptr) workload->start();
  }
  for (Node* node : nodes_) node->start();
}

obs::NodeStatus Cluster::node_status(ProcessId id) const {
  LUMIERE_ASSERT_MSG(id < nodes_.size(), "node_status: unknown node");
  if (!hosts_.empty()) return hosts_[id]->status();
  return tracer_.status(id, sim_.now());
}

std::uint64_t Cluster::tcp_bytes_sent() const {
  std::uint64_t total = 0;
  for (const auto& host : hosts_) total += host->bytes_sent();
  return total;
}

transport::SendCounts Cluster::tcp_send_counts() const {
  transport::SendCounts total;
  for (const auto& host : hosts_) total += host->send_counts();
  return total;
}

workload::Report Cluster::workload_report() const {
  workload::Report report;
  for (const workload::NodeWorkload* workload : workloads_) {
    if (workload != nullptr) report.merge(*workload);
  }
  return report;
}

void Cluster::run_for(Duration d) {
  start();
  if (scenario_.transport == TransportKind::kSim) {
    sim_.run_for(d);
    return;
  }
  if (d <= Duration::zero()) return;
  // TCP: one wall-clock driver thread per node (1 simulated us = 1 us);
  // sub-millisecond remainders round up rather than silently vanish.
  // One deadline for every driver: a per-thread one would let the nodes
  // started last keep running (and, as a quorum, keep advancing views)
  // after the first ones stopped.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds((d.ticks() + 999) / 1000);
  metrics_->begin_recording_window();
  std::vector<std::thread> threads;
  threads.reserve(hosts_.size());
  for (auto& host : hosts_) {
    threads.emplace_back([&host, deadline] { host->run_until(deadline); });
  }
  for (auto& thread : threads) thread.join();
  metrics_->end_recording_window();
}

void Cluster::run_until(TimePoint t) {
  if (scenario_.transport == TransportKind::kSim) {
    start();
    sim_.run_until(t);
    return;
  }
  // Already-passed targets no-op, matching Simulator::run_until.
  run_for(t - hosts_.front()->now());
}

std::vector<ProcessId> Cluster::honest_ids() const {
  std::vector<ProcessId> out;
  for (ProcessId id = 0; id < n(); ++id) {
    if (!byzantine(id)) out.push_back(id);
  }
  return out;
}

std::vector<bool> Cluster::byzantine_mask() const {
  std::vector<bool> mask(n());
  for (ProcessId id = 0; id < n(); ++id) mask[id] = byzantine(id);
  return mask;
}

core::HonestGapTracker Cluster::honest_gap_tracker() const {
  std::vector<const sim::LocalClock*> clocks;
  for (const Node* node : nodes_) {
    if (!byzantine(node->id())) clocks.push_back(&node->local_clock());
  }
  return core::HonestGapTracker(std::move(clocks));
}

View Cluster::min_honest_view() const {
  View lo = std::numeric_limits<View>::max();
  for (const Node* node : nodes_) {
    if (!byzantine(node->id())) lo = std::min(lo, node->current_view());
  }
  return lo;
}

View Cluster::max_honest_view() const {
  View hi = -1;
  for (const Node* node : nodes_) {
    if (!byzantine(node->id())) hi = std::max(hi, node->current_view());
  }
  return hi;
}

}  // namespace lumiere::runtime
