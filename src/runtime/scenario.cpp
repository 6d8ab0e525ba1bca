#include "runtime/scenario.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/rng.h"
#include "runtime/cluster.h"
#include "workload/request.h"

namespace lumiere::runtime {

const char* to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kSim:
      return "sim";
    case TransportKind::kTcp:
      return "tcp";
  }
  return "?";
}

// ---------------------------------------------------------------- NodeTweak

ScenarioBuilder::NodeTweak& ScenarioBuilder::NodeTweak::pacemaker(std::string name) {
  pacemaker_ = std::move(name);
  return *this;
}

ScenarioBuilder::NodeTweak& ScenarioBuilder::NodeTweak::core(std::string name) {
  core_ = std::move(name);
  return *this;
}

ScenarioBuilder::NodeTweak& ScenarioBuilder::NodeTweak::gamma(Duration gamma) {
  gamma_ = gamma;
  return *this;
}

ScenarioBuilder::NodeTweak& ScenarioBuilder::NodeTweak::lumiere(LumiereOptions options) {
  lumiere_ = options;
  return *this;
}

ScenarioBuilder::NodeTweak& ScenarioBuilder::NodeTweak::fever(FeverOptions options) {
  fever_ = options;
  return *this;
}

ScenarioBuilder::NodeTweak& ScenarioBuilder::NodeTweak::view_timeout(Duration timeout) {
  view_timeout_ = timeout;
  return *this;
}

ScenarioBuilder::NodeTweak& ScenarioBuilder::NodeTweak::join_time(TimePoint at) {
  join_time_ = at;
  return *this;
}

ScenarioBuilder::NodeTweak& ScenarioBuilder::NodeTweak::drift_ppm(std::int64_t ppm) {
  drift_ppm_ = ppm;
  return *this;
}

ScenarioBuilder::NodeTweak& ScenarioBuilder::NodeTweak::behavior(BehaviorThunk make) {
  behavior_ = std::move(make);
  return *this;
}

ScenarioBuilder::NodeTweak& ScenarioBuilder::NodeTweak::payload(PayloadProvider provider) {
  payload_ = std::move(provider);
  return *this;
}

ScenarioBuilder::NodeTweak& ScenarioBuilder::NodeTweak::workload(workload::WorkloadSpec spec) {
  workload_ = std::move(spec);
  return *this;
}

// ----------------------------------------------------------- ScenarioBuilder

ScenarioBuilder& ScenarioBuilder::params(ProtocolParams params) {
  params_ = params;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::pacemaker(std::string name) {
  protocol_.pacemaker = std::move(name);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::core(std::string name) {
  protocol_.core = std::move(name);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::gamma(Duration gamma) {
  protocol_.gamma = gamma;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::lumiere(LumiereOptions options) {
  protocol_.lumiere = options;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::fever(FeverOptions options) {
  protocol_.fever = options;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::view_timeout(Duration timeout) {
  protocol_.timeout.view_timeout = timeout;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::relay_timeout(Duration timeout) {
  protocol_.timeout.relay_timeout = timeout;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::seed(std::uint64_t seed) {
  seed_ = seed;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::auth_scheme(std::string name) {
  auth_scheme_ = std::move(name);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::pipeline(PipelineSpec spec) {
  pipeline_ = spec;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::workload(PayloadProvider provider) {
  workload_ = std::move(provider);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::workload(workload::WorkloadSpec spec) {
  workload_spec_ = std::move(spec);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::dissemination(dissem::DissemSpec spec) {
  dissem_ = spec;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::block_sync() { return *this; }

ScenarioBuilder& ScenarioBuilder::observability(obs::ObsSpec spec) {
  obs_ = spec;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::behaviors(adversary::BehaviorFactory factory) {
  behavior_for_ = std::move(factory);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::gst(TimePoint gst) {
  gst_ = gst;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::delay(std::shared_ptr<sim::DelayPolicy> policy) {
  delay_ = std::move(policy);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::join_stagger(Duration stagger) {
  join_stagger_ = stagger;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::drift_ppm_max(std::int64_t max) {
  drift_ppm_max_ = max;
  return *this;
}

void ScenarioBuilder::push_event(sim::FaultEvent event, TimePoint declared_at) {
  declared_.emplace_back(declared_at, sim::FaultSchedule::describe(event));
  schedule_.events.push_back(std::move(event));
}

ScenarioBuilder& ScenarioBuilder::partition(std::vector<std::vector<ProcessId>> groups,
                                            TimePoint at) {
  sim::FaultEvent event;
  event.at = at;
  event.kind = sim::FaultKind::kPartition;
  event.groups = std::move(groups);
  push_event(std::move(event), at);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::asym_partition(std::vector<ProcessId> from,
                                                 std::vector<ProcessId> to, TimePoint at) {
  sim::FaultEvent event;
  event.at = at;
  event.kind = sim::FaultKind::kAsymPartition;
  event.groups = {std::move(from), std::move(to)};
  push_event(std::move(event), at);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::behavior_change(ProcessId node, std::string behavior,
                                                  TimePoint at) {
  sim::FaultEvent event;
  event.at = at;
  event.kind = sim::FaultKind::kBehaviorChange;
  event.node = node;
  event.behavior = std::move(behavior);
  push_event(std::move(event), at);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::heal(TimePoint at) {
  sim::FaultEvent event;
  event.at = at;
  event.kind = sim::FaultKind::kHeal;
  push_event(std::move(event), at);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::crash(ProcessId node, TimePoint at) {
  sim::FaultEvent event;
  event.at = at;
  event.kind = sim::FaultKind::kCrash;
  event.node = node;
  push_event(std::move(event), at);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::recover(ProcessId node, TimePoint at) {
  sim::FaultEvent event;
  event.at = at;
  event.kind = sim::FaultKind::kRecover;
  event.node = node;
  push_event(std::move(event), at);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::churn(ProcessId node, TimePoint leave_at,
                                        TimePoint rejoin_at) {
  sim::FaultEvent leave;
  leave.at = leave_at;
  leave.kind = sim::FaultKind::kLeave;
  leave.node = node;
  push_event(std::move(leave), leave_at);
  // The rejoin rides on the same declaration: it is checked against its
  // own leave (rejoin_at > leave_at) rather than the declaration order,
  // so a churn window may span later-declared events.
  sim::FaultEvent rejoin;
  rejoin.at = rejoin_at;
  rejoin.kind = sim::FaultKind::kRejoin;
  rejoin.node = node;
  schedule_.events.push_back(std::move(rejoin));
  return *this;
}

ScenarioBuilder& ScenarioBuilder::delay_change(std::shared_ptr<sim::DelayPolicy> policy,
                                               TimePoint at) {
  sim::FaultEvent event;
  event.at = at;
  event.kind = sim::FaultKind::kDelayChange;
  event.delay = std::move(policy);
  push_event(std::move(event), at);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::link_delay(ProcessId from, ProcessId to,
                                             std::shared_ptr<sim::DelayPolicy> policy,
                                             TimePoint at) {
  sim::FaultEvent event;
  event.at = at;
  event.kind = sim::FaultKind::kLinkDelay;
  event.node = from;
  event.peer = to;
  event.delay = std::move(policy);
  push_event(std::move(event), at);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::topology(std::string preset) {
  topology_ = std::move(preset);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::transport_sim() {
  transport_ = TransportKind::kSim;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::transport_tcp(std::uint16_t base_port) {
  transport_ = TransportKind::kTcp;
  tcp_base_port_ = base_port;
  return *this;
}

ScenarioBuilder::NodeTweak& ScenarioBuilder::node(ProcessId id) { return tweaks_[id]; }

std::vector<std::string> ScenarioBuilder::validate() const {
  std::vector<std::string> errors;
  const auto& registry = ProtocolRegistry::instance();

  if (params_.n < 3 * params_.f + 1 || params_.f < 1) {
    errors.push_back("params: n must be at least 3f + 1 with f >= 1 (n = " +
                     std::to_string(params_.n) + ", f = " + std::to_string(params_.f) + ")");
  }
  if (params_.delta_cap <= Duration::zero()) {
    errors.push_back("params: delta_cap (Delta) must be positive");
  }
  if (params_.x < 2) {
    errors.push_back("params: view-completion constant x must be >= 2");
  }
  if (protocol_.gamma < Duration::zero()) {
    errors.push_back("gamma must be non-negative (zero selects the protocol default)");
  }
  if (drift_ppm_max_ < 0) {
    errors.push_back("drift_ppm_max must be non-negative");
  }
  if (join_stagger_ < Duration::zero()) {
    errors.push_back("join_stagger must be non-negative");
  }
  if (!crypto::has_scheme(auth_scheme_)) {
    std::string known;
    for (const auto& name : crypto::scheme_names()) known += " " + name;
    errors.push_back("auth_scheme: unknown scheme \"" + auth_scheme_ +
                     "\"; known schemes:" + known);
  }
  if (pipeline_.enabled) {
    if (transport_ != TransportKind::kTcp) {
      errors.push_back(
          "pipeline: the staged verification pipeline is TCP-transport-only (the "
          "deterministic simulator is single-threaded by design); use transport_tcp()");
    }
    if (pipeline_.workers == 0) {
      errors.push_back("pipeline: workers must be >= 1");
    }
    if (pipeline_.queue_capacity == 0) {
      errors.push_back("pipeline: queue_capacity must be >= 1");
    }
  }

  if (obs_.status_base_port != 0) {
    if (transport_ != TransportKind::kTcp) {
      errors.push_back(
          "observability: status endpoints are TCP-transport-only (a simulated cluster "
          "has no live sockets to serve); use transport_tcp()");
    } else if (static_cast<std::uint32_t>(obs_.status_base_port) + params_.n - 1 > 65535) {
      errors.push_back("observability: status ports " + std::to_string(obs_.status_base_port) +
                       ".." + std::to_string(obs_.status_base_port + params_.n - 1) +
                       " exceed 65535");
    } else if (transport_ == TransportKind::kTcp && tcp_base_port_ != 0 &&
               obs_.status_base_port < tcp_base_port_ + params_.n &&
               tcp_base_port_ < obs_.status_base_port + params_.n) {
      errors.push_back("observability: status ports " + std::to_string(obs_.status_base_port) +
                       ".." + std::to_string(obs_.status_base_port + params_.n - 1) +
                       " overlap the transport ports " + std::to_string(tcp_base_port_) + ".." +
                       std::to_string(tcp_base_port_ + params_.n - 1));
    }
    if (!obs_.tracer) {
      errors.push_back(
          "observability: status endpoints report sync spans — enable the tracer "
          "(ObsSpec::tracer) alongside status_base_port");
    }
  }
  if (!obs_.admin_token.empty() && obs_.status_base_port == 0) {
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
  check_names("defaults", protocol_.pacemaker, protocol_.core);

  for (const auto& [id, tweak] : tweaks_) {
    const std::string where = "node " + std::to_string(id);
    if (id >= params_.n) {
      errors.push_back(where + ": override targets a node outside 0.." +
                       std::to_string(params_.n - 1));
      continue;
    }
    check_names(where, tweak.pacemaker_.value_or(protocol_.pacemaker),
                tweak.core_.value_or(protocol_.core));
    if (tweak.gamma_ && *tweak.gamma_ < Duration::zero()) {
      errors.push_back(where + ": gamma must be non-negative");
    }
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
  if (workload_spec_ && workload_) {
    errors.push_back(
        "workload: a WorkloadSpec and a raw PayloadProvider are mutually exclusive at the "
        "cluster level (per-node payload overrides still win over the cluster workload)");
  }
  if (dissem_) {
    if (!workload_spec_) {
      errors.push_back(
          "dissemination: requires the client-driven workload (WorkloadSpec form) — batches "
          "to certify come from the per-node mempools");
    }
    if (workload_) {
      errors.push_back(
          "dissemination: incompatible with a raw PayloadProvider (proposals must carry "
          "certified batch references, not arbitrary bytes)");
    }
    if (dissem_->push_interval <= Duration::zero() ||
        dissem_->retry_interval <= Duration::zero() ||
        dissem_->reinsert_timeout <= Duration::zero()) {
      errors.push_back("dissemination: push/retry/reinsert intervals must be positive");
    }
    if (dissem_->max_refs_per_proposal == 0 || dissem_->max_batches_per_tick == 0 ||
        dissem_->max_uncertified == 0) {
      errors.push_back("dissemination: max_refs_per_proposal, max_batches_per_tick and "
                       "max_uncertified must be >= 1");
    }
    for (const auto& [id, tweak] : tweaks_) {
      if (tweak.payload_) {
        errors.push_back("node " + std::to_string(id) +
                         ": a raw payload override is incompatible with dissemination");
      }
    }
  }
  if (workload_spec_) check_workload("defaults", *workload_spec_, protocol_.core);
  for (const auto& [id, tweak] : tweaks_) {
    if (id >= params_.n) continue;  // reported above
    const std::string where = "node " + std::to_string(id);
    if (tweak.workload_ && tweak.payload_) {
      errors.push_back(where + ": workload and payload overrides are mutually exclusive");
      continue;
    }
    if (tweak.workload_) {
      check_workload(where, *tweak.workload_, tweak.core_.value_or(protocol_.core));
    } else if (workload_spec_ && !tweak.payload_ && tweak.core_) {
      // The cluster workload lands on this node with an overridden core.
      check_workload(where, *workload_spec_, *tweak.core_);
    }
  }

  // ---- fault schedule ---------------------------------------------------
  const auto check_node_id = [&](const std::string& where, ProcessId id) {
    if (id >= params_.n) {
      errors.push_back(where + ": references node id " + std::to_string(id) +
                       " but the cluster has nodes 0.." + std::to_string(params_.n - 1));
      return false;
    }
    return true;
  };
  for (std::size_t i = 1; i < declared_.size(); ++i) {
    if (declared_[i].first < declared_[i - 1].first) {
      errors.push_back("fault schedule: \"" + declared_[i].second +
                       "\" is declared after \"" + declared_[i - 1].second +
                       "\" but happens earlier; declare events in timeline order");
    }
  }
  for (const sim::FaultEvent& event : schedule_.events) {
    const std::string where = "fault schedule: " + sim::FaultSchedule::describe(event);
    if (event.at < TimePoint::origin()) {
      errors.push_back(where + ": event time must not precede the origin");
    }
    switch (event.kind) {
      case sim::FaultKind::kPartition: {
        std::vector<bool> seen(params_.n, false);
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
          std::vector<bool> seen(params_.n, false);
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
    std::vector<sim::FaultEvent> timeline = schedule_.events;
    std::stable_sort(timeline.begin(), timeline.end(),
                     [](const sim::FaultEvent& a, const sim::FaultEvent& b) { return a.at < b.at; });
    std::vector<bool> down(params_.n, false);
    for (const sim::FaultEvent& event : timeline) {
      if (event.node >= params_.n) continue;  // out-of-range: reported above
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
    for (const sim::FaultEvent& event : schedule_.events) {
      if (event.kind == sim::FaultKind::kLeave) leave_at[event.node] = event.at;
      if (event.kind == sim::FaultKind::kRejoin && leave_at.count(event.node) &&
          event.at <= leave_at[event.node]) {
        errors.push_back("fault schedule: churn of node " + std::to_string(event.node) +
                         " must rejoin strictly after it leaves");
      }
    }
  }

  // ---- topology preset --------------------------------------------------
  if (!topology_.empty()) {
    if (!sim::has_topology_preset(topology_)) {
      errors.push_back("topology: " + sim::unknown_topology_message(topology_));
    } else {
      const sim::TopologyPreset& preset = sim::topology_preset(topology_);
      if (preset.max_delay() > params_.delta_cap) {
        errors.push_back(
            "topology \"" + topology_ + "\": worst link delay (" +
            std::to_string(preset.max_delay().ticks() / 1000) + "ms) exceeds Delta (" +
            std::to_string(params_.delta_cap.ticks() / 1000) +
            "ms); the model would clamp it — raise params delta_cap above the preset's "
            "max_delay()");
      }
      if (delay_ != nullptr) {
        errors.push_back(
            "topology \"" + topology_ +
            "\" and delay() are mutually exclusive (the preset is the delay policy); use "
            "delay_change() to switch policies mid-run");
      }
    }
  }

  if (transport_ == TransportKind::kTcp) {
    if (tcp_base_port_ == 0) {
      errors.push_back("tcp transport: transport_tcp(base_port) requires a non-zero port");
    } else if (static_cast<std::uint32_t>(tcp_base_port_) + params_.n - 1 > 65535) {
      errors.push_back("tcp transport: ports " + std::to_string(tcp_base_port_) + ".." +
                       std::to_string(tcp_base_port_ + params_.n - 1) + " exceed 65535");
    }
    if (delay_ != nullptr) {
      errors.push_back(
          "tcp transport: delay policies are simulator-only (the real network cannot be "
          "adversary-controlled); use transport_sim() for delay experiments");
    }
    if (gst_ != TimePoint::origin()) {
      errors.push_back(
          "tcp transport: GST is simulator-only (wall-clock runs have no synchrony switch); "
          "use transport_sim() for partial-synchrony experiments");
    }
    if (!topology_.empty()) {
      errors.push_back(
          "tcp transport: topology presets are simulator-only (the real network's delays "
          "cannot be scripted); use transport_sim() for WAN experiments");
    }
    for (const sim::FaultEvent& event : schedule_.events) {
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
  scenario.params = params_;
  scenario.seed = seed_;
  scenario.transport = transport_;
  scenario.auth_scheme = auth_scheme_;
  scenario.pipeline = pipeline_;
  scenario.gst = gst_;
  scenario.delay = delay_;
  scenario.tcp_base_port = tcp_base_port_;
  scenario.schedule = schedule_;
  scenario.topology = topology_;
  scenario.dissem = dissem_;
  scenario.obs = obs_;
  if (!topology_.empty()) {
    scenario.delay = sim::make_topology_delay(topology_, params_.n);
  }
  // Events executed in time order; the stable sort keeps same-instant
  // events in declaration order (the determinism tests rely on it).
  std::stable_sort(scenario.schedule.events.begin(), scenario.schedule.events.end(),
                   [](const sim::FaultEvent& a, const sim::FaultEvent& b) { return a.at < b.at; });

  Rng join_rng(seed_ ^ 0x4a4f494eULL);
  Rng drift_rng(seed_ ^ 0x44524946ULL);
  scenario.nodes.reserve(params_.n);
  for (ProcessId id = 0; id < params_.n; ++id) {
    NodeSpec spec;
    spec.protocol = protocol_;
    spec.protocol.shared_seed = seed_;
    spec.payload_provider = workload_;
    spec.workload = workload_spec_;
    // The random draws are consumed for every node, override or not, so
    // an override on node k never shifts the other nodes' draws.
    const TimePoint drawn_join = join_stagger_ > Duration::zero()
                                     ? TimePoint(join_rng.next_in(0, join_stagger_.ticks()))
                                     : TimePoint::origin();
    const std::int64_t drawn_drift =
        drift_ppm_max_ > 0 ? drift_rng.next_in(-drift_ppm_max_, drift_ppm_max_) : 0;
    spec.join_time = drawn_join;
    spec.clock_drift_ppm = drawn_drift;
    if (behavior_for_) {
      spec.behavior = [factory = behavior_for_, id] { return factory(id); };
    } else {
      spec.behavior = [] { return std::make_unique<adversary::HonestBehavior>(); };
    }

    const auto it = tweaks_.find(id);
    if (it != tweaks_.end()) {
      const NodeTweak& tweak = it->second;
      if (tweak.pacemaker_) spec.protocol.pacemaker = *tweak.pacemaker_;
      if (tweak.core_) spec.protocol.core = *tweak.core_;
      if (tweak.gamma_) spec.protocol.gamma = *tweak.gamma_;
      if (tweak.lumiere_) spec.protocol.lumiere = *tweak.lumiere_;
      if (tweak.fever_) spec.protocol.fever = *tweak.fever_;
      if (tweak.view_timeout_) spec.protocol.timeout.view_timeout = *tweak.view_timeout_;
      if (tweak.join_time_) spec.join_time = *tweak.join_time_;
      if (tweak.drift_ppm_) spec.clock_drift_ppm = *tweak.drift_ppm_;
      if (tweak.behavior_) spec.behavior = tweak.behavior_;
      if (tweak.payload_) {
        spec.payload_provider = tweak.payload_;
        spec.workload.reset();  // a raw payload override displaces the workload
      }
      if (tweak.workload_) spec.workload = tweak.workload_;
    }
    if (spec.workload && spec.workload->clients_per_node == 0) spec.workload.reset();
    scenario.nodes.push_back(std::move(spec));
  }
  return scenario;
}

std::unique_ptr<Cluster> ScenarioBuilder::build() const {
  return std::make_unique<Cluster>(scenario());
}

}  // namespace lumiere::runtime
