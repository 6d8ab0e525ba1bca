#include "runtime/scenario.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/rng.h"
#include "workload/request.h"

namespace lumiere::runtime {
namespace {

bool earlier(const sim::FaultEvent& a, const sim::FaultEvent& b) { return a.at < b.at; }

sim::FaultEvent event_at(TimePoint at, sim::FaultKind kind, ProcessId node = kNoProcess) {
  sim::FaultEvent event;
  event.at = at;
  event.kind = kind;
  event.node = node;
  return event;
}

}  // namespace

const char* to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kSim:
      return "sim";
    case TransportKind::kTcp:
      return "tcp";
  }
  return "?";
}

// ----------------------------------------------------------- ScenarioBuilder

ScenarioBuilder& ScenarioBuilder::push(sim::FaultEvent event) {
  spec_.schedule.events.push_back(std::move(event));
  return *this;
}

ScenarioBuilder& ScenarioBuilder::partition(std::vector<std::vector<ProcessId>> groups,
                                            TimePoint at) {
  sim::FaultEvent event = event_at(at, sim::FaultKind::kPartition);
  event.groups = std::move(groups);
  return push(std::move(event));
}

ScenarioBuilder& ScenarioBuilder::asym_partition(std::vector<ProcessId> from,
                                                 std::vector<ProcessId> to, TimePoint at) {
  sim::FaultEvent event = event_at(at, sim::FaultKind::kAsymPartition);
  event.groups = {std::move(from), std::move(to)};
  return push(std::move(event));
}

ScenarioBuilder& ScenarioBuilder::behavior_change(ProcessId node, std::string behavior,
                                                  TimePoint at) {
  sim::FaultEvent event = event_at(at, sim::FaultKind::kBehaviorChange, node);
  event.behavior = std::move(behavior);
  return push(std::move(event));
}

ScenarioBuilder& ScenarioBuilder::heal(TimePoint at) {
  return push(event_at(at, sim::FaultKind::kHeal));
}

ScenarioBuilder& ScenarioBuilder::crash(ProcessId node, TimePoint at) {
  return push(event_at(at, sim::FaultKind::kCrash, node));
}

ScenarioBuilder& ScenarioBuilder::recover(ProcessId node, TimePoint at) {
  return push(event_at(at, sim::FaultKind::kRecover, node));
}

ScenarioBuilder& ScenarioBuilder::churn(ProcessId node, TimePoint leave_at,
                                        TimePoint rejoin_at) {
  push(event_at(leave_at, sim::FaultKind::kLeave, node));
  return push(event_at(rejoin_at, sim::FaultKind::kRejoin, node));
}

ScenarioBuilder& ScenarioBuilder::delay_change(std::shared_ptr<sim::DelayPolicy> policy,
                                               TimePoint at) {
  sim::FaultEvent event = event_at(at, sim::FaultKind::kDelayChange);
  event.delay = std::move(policy);
  return push(std::move(event));
}

ScenarioBuilder& ScenarioBuilder::link_delay(ProcessId from, ProcessId to,
                                             std::shared_ptr<sim::DelayPolicy> policy,
                                             TimePoint at) {
  sim::FaultEvent event = event_at(at, sim::FaultKind::kLinkDelay, from);
  event.peer = to;
  event.delay = std::move(policy);
  return push(std::move(event));
}

std::vector<std::string> ScenarioBuilder::validate() const {
  std::vector<std::string> errors;
  const auto& registry = ProtocolRegistry::instance();
  const ProtocolParams& params = spec_.params;

  // n >= 3f + 1 without computing 3f + 1, which wraps for a huge f.
  if (params.f < 1 || params.n < 4 || (params.n - 1) / 3 < params.f) {
    errors.push_back("params: n must be at least 3f + 1 with f >= 1 (n = " +
                     std::to_string(params.n) + ", f = " + std::to_string(params.f) + ")");
  }
  if (params.delta_cap <= Duration::zero()) {
    errors.push_back("params: delta_cap (Delta) must be positive");
  }
  if (params.x < 2) {
    errors.push_back("params: view-completion constant x must be >= 2");
  }
  if (spec_.protocol.gamma < Duration::zero()) {
    errors.push_back("gamma must be non-negative (zero selects the protocol default)");
  }
  if (spec_.drift_ppm_max < 0) {
    errors.push_back("drift_ppm_max must be non-negative");
  }
  if (spec_.join_stagger < Duration::zero()) {
    errors.push_back("join_stagger must be non-negative");
  }
  if (!crypto::has_scheme(spec_.auth_scheme)) {
    std::string known;
    for (const auto& name : crypto::scheme_names()) known += " " + name;
    errors.push_back("auth_scheme: unknown scheme \"" + spec_.auth_scheme +
                     "\"; known schemes:" + known);
  }
  if (spec_.pipeline.enabled) {
    if (spec_.transport != TransportKind::kTcp) {
      errors.push_back(
          "pipeline: the staged verification pipeline is TCP-transport-only (the "
          "deterministic simulator is single-threaded by design); use transport_tcp()");
    }
    if (spec_.pipeline.workers == 0) {
      errors.push_back("pipeline: workers must be >= 1");
    }
    if (spec_.pipeline.queue_capacity == 0) {
      errors.push_back("pipeline: queue_capacity must be >= 1");
    }
  }

  if (const std::uint32_t status = spec_.obs.status_base_port; status != 0) {
    const std::uint32_t tcp = spec_.tcp_base_port;
    const std::string status_range =
        std::to_string(status) + ".." + std::to_string(status + params.n - 1);
    if (spec_.transport != TransportKind::kTcp) {
      errors.push_back(
          "observability: status endpoints are TCP-transport-only (a simulated cluster "
          "has no live sockets to serve); use transport_tcp()");
    } else if (status + params.n - 1 > 65535) {
      errors.push_back("observability: status ports " + status_range + " exceed 65535");
    } else if (tcp != 0 && status < tcp + params.n && tcp < status + params.n) {
      errors.push_back("observability: status ports " + status_range +
                       " overlap the transport ports " + std::to_string(tcp) + ".." +
                       std::to_string(tcp + params.n - 1));
    }
  }
  if (!spec_.obs.admin_token.empty() && spec_.obs.status_base_port == 0) {
    errors.push_back(
        "observability: admin_token requires status endpoints (set "
        "ObsSpec::status_base_port)");
  }

  auto check_names = [&](const std::string& where, const std::string& pm,
                         const std::string& core) {
    if (!registry.has_pacemaker(pm)) {
      errors.push_back(where + ": " + registry.unknown_pacemaker_message(pm));
    }
    if (!registry.has_core(core)) {
      errors.push_back(where + ": " + registry.unknown_core_message(core));
    }
  };
  check_names("defaults", spec_.protocol.pacemaker, spec_.protocol.core);

  for (const BehaviorAssignment& assignment : spec_.byzantine) {
    const std::string where = "byzantine: node " + std::to_string(assignment.node);
    if (assignment.node >= params.n) {
      errors.push_back(where + " is outside 0.." + std::to_string(params.n - 1));
    }
    if (!adversary::has_behavior(assignment.behavior)) {
      errors.push_back(where + ": unknown behavior \"" + assignment.behavior + "\"");
    }
  }

  for (const auto& [id, tweak] : spec_.overrides) {
    const std::string where = "node " + std::to_string(id);
    if (id >= params.n) {
      errors.push_back(where + ": override targets a node outside 0.." +
                       std::to_string(params.n - 1));
      continue;
    }
    check_names(where, tweak.pacemaker.value_or(spec_.protocol.pacemaker),
                tweak.core.value_or(spec_.protocol.core));
  }

  // ---- workload ---------------------------------------------------------
  const auto check_workload = [&](const std::string& where, const workload::WorkloadSpec& spec,
                                  const std::string& core_name) {
    if (spec.clients_per_node >= workload::kClientsPerNodeStride) {
      errors.push_back(where + ": workload clients_per_node must be below " +
                       std::to_string(workload::kClientsPerNodeStride) +
                       " (client ids encode the node in the high bits)");
    }
    if (spec.clients_per_node == 0) return;  // workload disabled on this node
    const bool open_loop = spec.arrival != workload::Arrival::kClosedLoop;
    if (open_loop && !(spec.rate_per_client > 0)) {
      errors.push_back(where + ": open-loop workload needs rate_per_client > 0");
    }
    if (!open_loop && spec.in_flight == 0) {
      errors.push_back(where + ": closed-loop workload needs in_flight >= 1");
    }
    if (spec.arrival == workload::Arrival::kBursty) {
      if (spec.burst_factor < 1.0) {
        errors.push_back(where + ": bursty workload needs burst_factor >= 1");
      }
      if (spec.burst_period <= Duration::zero()) {
        errors.push_back(where + ": bursty workload needs burst_period > 0");
      }
      if (!(spec.burst_duty > 0.0 && spec.burst_duty <= 1.0)) {
        errors.push_back(where + ": bursty workload needs burst_duty in (0, 1]");
      }
    }
    if (spec.stop <= spec.start) {
      errors.push_back(where + ": workload stop must be after start");
    }
    if (!spec.body && spec.request_bytes < workload::kRequestHeaderBytes) {
      errors.push_back(where + ": workload request_bytes must be at least the " +
                       std::to_string(workload::kRequestHeaderBytes) + "-byte request header");
    }
    if (spec.mempool.max_batch_count == 0) {
      errors.push_back(where + ": workload mempool max_batch_count must be >= 1");
    }
    if (!spec.body && spec.request_bytes + 4 > spec.mempool.max_batch_bytes) {
      errors.push_back(where +
                       ": workload request_bytes + 4 (framing) exceeds the mempool's "
                       "max_batch_bytes — every request would be rejected as oversized");
    }
    if (core_name == "simple-view") {
      errors.push_back(where +
                       ": a workload needs a committing core (chained-hotstuff or "
                       "hotstuff-2); simple-view never commits, so no request would ever "
                       "complete");
    }
  };
  if (spec_.workload && spec_.payload) {
    errors.push_back(
        "workload: a WorkloadSpec and a raw PayloadProvider are mutually exclusive at the "
        "cluster level (per-node payload overrides still win over the cluster workload)");
  }
  if (spec_.dissem) {
    if (!spec_.workload) {
      errors.push_back(
          "dissemination: requires the client-driven workload (WorkloadSpec form) — batches "
          "to certify come from the per-node mempools");
    }
    if (spec_.payload) {
      errors.push_back(
          "dissemination: incompatible with a raw PayloadProvider (proposals must carry "
          "certified batch references, not arbitrary bytes)");
    }
    for (const auto& [id, tweak] : spec_.overrides) {
      if (tweak.payload) {
        errors.push_back("node " + std::to_string(id) +
                         ": a raw payload override is incompatible with dissemination");
      }
    }
  }
  if (spec_.workload) check_workload("defaults", *spec_.workload, spec_.protocol.core);
  for (const auto& [id, tweak] : spec_.overrides) {
    if (id >= params.n) continue;  // reported above
    const std::string where = "node " + std::to_string(id);
    if (tweak.workload && tweak.payload) {
      errors.push_back(where + ": workload and payload overrides are mutually exclusive");
      continue;
    }
    if (tweak.workload) {
      check_workload(where, *tweak.workload, tweak.core.value_or(spec_.protocol.core));
    } else if (spec_.workload && !tweak.payload && tweak.core) {
      // The cluster workload lands on this node with an overridden core.
      check_workload(where, *spec_.workload, *tweak.core);
    }
  }

  // ---- fault schedule ---------------------------------------------------
  const auto check_node_id = [&](const std::string& where, ProcessId id) {
    if (id >= params.n) {
      errors.push_back(where + ": references node id " + std::to_string(id) +
                       " but the cluster has nodes 0.." + std::to_string(params.n - 1));
      return false;
    }
    return true;
  };
  // Declaration order is timeline order, except for a churn window's
  // rejoin, which is checked against its own leave below.
  const sim::FaultEvent* previous = nullptr;
  for (const sim::FaultEvent& event : spec_.schedule.events) {
    if (event.kind == sim::FaultKind::kRejoin) continue;
    if (previous != nullptr && event.at < previous->at) {
      errors.push_back("fault schedule: \"" + sim::FaultSchedule::describe(event) +
                       "\" is declared after \"" + sim::FaultSchedule::describe(*previous) +
                       "\" but happens earlier; declare events in timeline order");
    }
    previous = &event;
  }
  for (const sim::FaultEvent& event : spec_.schedule.events) {
    const std::string where = "fault schedule: " + sim::FaultSchedule::describe(event);
    if (event.at < TimePoint::origin()) {
      errors.push_back(where + ": event time must not precede the origin");
    }
    switch (event.kind) {
      case sim::FaultKind::kPartition: {
        std::vector<bool> seen(params.n, false);
        for (const auto& group : event.groups) {
          if (group.empty()) {
            errors.push_back(where + ": partition groups must be non-empty");
          }
          for (const ProcessId id : group) {
            if (!check_node_id(where, id)) continue;
            if (seen[id]) {
              errors.push_back(where + ": node " + std::to_string(id) +
                               " appears in more than one group");
            }
            seen[id] = true;
          }
        }
        break;
      }
      case sim::FaultKind::kAsymPartition: {
        if (event.groups.size() != 2) {
          errors.push_back(where + ": an asymmetric partition needs exactly two groups "
                           "(senders, then receivers of the one-way cut)");
          break;
        }
        for (std::size_t side = 0; side < 2; ++side) {
          const char* const label = side == 0 ? "sender" : "receiver";
          if (event.groups[side].empty()) {
            errors.push_back(where + ": the " + label + " group must be non-empty");
          }
          std::vector<bool> seen(params.n, false);
          for (const ProcessId id : event.groups[side]) {
            if (!check_node_id(where, id)) continue;
            if (seen[id]) {
              errors.push_back(where + ": node " + std::to_string(id) +
                               " appears twice in the " + label + " group");
            }
            seen[id] = true;
          }
        }
        break;
      }
      case sim::FaultKind::kBehaviorChange:
        check_node_id(where, event.node);
        if (!adversary::has_behavior(event.behavior)) {
          std::string known;
          for (const auto& name : adversary::behavior_names()) known += " " + name;
          errors.push_back(where + ": unknown behavior \"" + event.behavior +
                           "\"; known behaviors:" + known);
        }
        break;
      case sim::FaultKind::kCrash:
      case sim::FaultKind::kRecover:
      case sim::FaultKind::kLeave:
      case sim::FaultKind::kRejoin:
        check_node_id(where, event.node);
        break;
      case sim::FaultKind::kLinkDelay:
        check_node_id(where, event.node);
        check_node_id(where, event.peer);
        break;
      case sim::FaultKind::kHeal:
      case sim::FaultKind::kDelayChange:
        break;
    }
  }
  // A behavior change targets the node's running protocol stack: swapping
  // the behavior of a processor that is down at that instant is a scripted
  // contradiction (the process isn't executing anything to deviate from).
  {
    std::vector<sim::FaultEvent> timeline = spec_.schedule.events;
    std::stable_sort(timeline.begin(), timeline.end(), earlier);
    std::vector<bool> down(params.n, false);
    for (const sim::FaultEvent& event : timeline) {
      if (event.node >= params.n) continue;  // out-of-range: reported above
      switch (event.kind) {
        case sim::FaultKind::kCrash:
        case sim::FaultKind::kLeave:
          down[event.node] = true;
          break;
        case sim::FaultKind::kRecover:
        case sim::FaultKind::kRejoin:
          down[event.node] = false;
          break;
        case sim::FaultKind::kBehaviorChange:
          if (down[event.node]) {
            errors.push_back("fault schedule: " + sim::FaultSchedule::describe(event) +
                             ": targets a node that is crashed at that instant; recover it "
                             "first (or move the change)");
          }
          break;
        default:
          break;
      }
    }
  }
  // Churn windows: each rejoin must follow its leave. Leave/rejoin events
  // are emitted pairwise by churn(), in order, per node.
  {
    std::map<ProcessId, TimePoint> leave_at;
    for (const sim::FaultEvent& event : spec_.schedule.events) {
      if (event.kind == sim::FaultKind::kLeave) leave_at[event.node] = event.at;
      if (event.kind == sim::FaultKind::kRejoin && leave_at.count(event.node) &&
          event.at <= leave_at[event.node]) {
        errors.push_back("fault schedule: churn of node " + std::to_string(event.node) +
                         " must rejoin strictly after it leaves");
      }
    }
  }

  // ---- topology preset --------------------------------------------------
  if (!spec_.topology.empty()) {
    if (!sim::has_topology_preset(spec_.topology)) {
      errors.push_back("topology: " + sim::unknown_topology_message(spec_.topology));
    } else {
      const sim::TopologyPreset& preset = sim::topology_preset(spec_.topology);
      if (preset.max_delay() > params.delta_cap) {
        errors.push_back(
            "topology \"" + spec_.topology + "\": worst link delay (" +
            std::to_string(preset.max_delay().ticks() / 1000) + "ms) exceeds Delta (" +
            std::to_string(params.delta_cap.ticks() / 1000) +
            "ms); the model would clamp it — raise params delta_cap above the preset's "
            "max_delay()");
      }
      if (spec_.delay != nullptr) {
        errors.push_back(
            "topology \"" + spec_.topology +
            "\" and delay() are mutually exclusive (the preset is the delay policy); use "
            "delay_change() to switch policies mid-run");
      }
    }
  }

  if (spec_.transport == TransportKind::kTcp) {
    if (spec_.tcp_base_port == 0) {
      errors.push_back("tcp transport: transport_tcp(base_port) requires a non-zero port");
    } else if (static_cast<std::uint32_t>(spec_.tcp_base_port) + params.n - 1 > 65535) {
      errors.push_back("tcp transport: ports " + std::to_string(spec_.tcp_base_port) + ".." +
                       std::to_string(spec_.tcp_base_port + params.n - 1) + " exceed 65535");
    }
    if (spec_.delay != nullptr) {
      errors.push_back(
          "tcp transport: delay policies are simulator-only (the real network cannot be "
          "adversary-controlled); use the default sim transport for delay experiments");
    }
    if (spec_.gst != TimePoint::origin()) {
      errors.push_back(
          "tcp transport: GST is simulator-only (wall-clock runs have no synchrony switch); "
          "use the default sim transport for partial-synchrony experiments");
    }
    if (!spec_.topology.empty()) {
      errors.push_back(
          "tcp transport: topology presets are simulator-only (the real network's delays "
          "cannot be scripted); use the default sim transport for WAN experiments");
    }
    for (const sim::FaultEvent& event : spec_.schedule.events) {
      if (event.kind == sim::FaultKind::kDelayChange ||
          event.kind == sim::FaultKind::kLinkDelay) {
        errors.push_back("tcp transport: " + sim::FaultSchedule::describe(event) +
                         " is simulator-only (delays cannot be scripted on real sockets); "
                         "partitions, crashes and churn do have a best-effort TCP analogue");
      }
    }
  }
  return errors;
}

Scenario ScenarioBuilder::scenario() const {
  const std::vector<std::string> errors = validate();
  if (!errors.empty()) {
    std::ostringstream out;
    out << "invalid scenario (" << errors.size() << " error" << (errors.size() == 1 ? "" : "s")
        << "):";
    for (const auto& error : errors) out << "\n  - " << error;
    throw std::invalid_argument(out.str());
  }

  Scenario scenario;
  static_cast<ScenarioSpec&>(scenario) = spec_;
  if (!spec_.topology.empty()) {
    scenario.delay = sim::make_topology_delay(spec_.topology, spec_.params.n);
  }
  // Events executed in time order; the stable sort keeps same-instant
  // events in declaration order (the determinism tests rely on it).
  std::stable_sort(scenario.schedule.events.begin(), scenario.schedule.events.end(), earlier);
  std::map<ProcessId, std::string> named;  // the last byzantine entry per node
  for (const BehaviorAssignment& assignment : spec_.byzantine) {
    named[assignment.node] = assignment.behavior;
  }

  Rng join_rng(spec_.seed ^ 0x4a4f494eULL);
  Rng drift_rng(spec_.seed ^ 0x44524946ULL);
  scenario.nodes.reserve(spec_.params.n);
  for (ProcessId id = 0; id < spec_.params.n; ++id) {
    NodeSpec spec;
    spec.protocol = spec_.protocol;
    spec.protocol.shared_seed = spec_.seed;
    spec.payload_provider = spec_.payload;
    spec.workload = spec_.workload;
    // The random draws are consumed for every node, override or not, so
    // an override on node k never shifts the other nodes' draws.
    const std::int64_t stagger = spec_.join_stagger.ticks();
    const std::int64_t drift = spec_.drift_ppm_max;
    spec.join_time = stagger > 0 ? TimePoint(join_rng.next_in(0, stagger)) : TimePoint::origin();
    spec.clock_drift_ppm = drift > 0 ? drift_rng.next_in(-drift, drift) : 0;
    if (const auto name = named.find(id); name != named.end()) {
      spec.behavior = [behavior = name->second] { return adversary::make_behavior(behavior); };
    } else if (spec_.behaviors) {
      spec.behavior = [factory = spec_.behaviors, id] { return factory(id); };
    } else {
      spec.behavior = [] { return std::make_unique<adversary::HonestBehavior>(); };
    }

    const auto it = spec_.overrides.find(id);
    if (it != spec_.overrides.end()) {
      const NodeOverride& tweak = it->second;
      if (tweak.pacemaker) spec.protocol.pacemaker = *tweak.pacemaker;
      if (tweak.core) spec.protocol.core = *tweak.core;
      if (tweak.join_time) spec.join_time = *tweak.join_time;
      if (tweak.drift_ppm) spec.clock_drift_ppm = *tweak.drift_ppm;
      if (tweak.behavior) spec.behavior = tweak.behavior;
      if (tweak.payload) {
        spec.payload_provider = tweak.payload;
        spec.workload.reset();  // a raw payload override displaces the workload
      }
      if (tweak.workload) spec.workload = tweak.workload;
    }
    if (spec.workload && spec.workload->clients_per_node == 0) spec.workload.reset();
    scenario.nodes.push_back(std::move(spec));
  }
  return scenario;
}

}  // namespace lumiere::runtime
