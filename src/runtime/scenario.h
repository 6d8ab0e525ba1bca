// ScenarioSpec + ScenarioBuilder: one description for every deployment
// shape.
//
// A scenario = protocol params + an adversary (delays, GST, behaviors) +
// one protocol stack per node + a transport. ScenarioSpec holds all of it
// as plain data; the builder's fluent setters write into one, compose
// cluster-wide defaults with per-node overrides, validate, and resolve
// it into a Scenario (one NodeSpec per node). Heterogeneous deployments
// (mixed pacemakers, per-node drift / join time / behavior) and
// sim-vs-TCP parity are expressed through the same few lines:
//
//   ScenarioBuilder builder;
//   builder.params(ProtocolParams::for_n(4, Duration::millis(10)))
//       .pacemaker("lumiere")
//       .core("chained-hotstuff")
//       .seed(7);
//   builder.node(2).pacemaker("fever").drift_ppm(200);   // override node 2
//   Cluster cluster(builder.scenario());
//   cluster.run_for(Duration::seconds(10));
//
// Code that produces a whole experiment as data (the fuzzer's sampler,
// the spec-file parser) fills a ScenarioSpec and wraps it:
// ScenarioBuilder(spec).scenario(). A new knob is a ScenarioSpec field,
// its validate()/scenario() handling here, and — when the spec file or
// the fuzzer carries it — a spec_io key or a sampler write. A knob earns
// its place only when two callers outside the tests (benches, tools,
// examples, the fuzzer) want different values; a setting that only one
// value ever reaches is a constant in the code that reads it.
//
// Protocol names resolve through the ProtocolRegistry (runtime/registry.h);
// validate() reports every configuration error with the node it applies to.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/behaviors.h"
#include "obs/spec.h"
#include "runtime/pipeline.h"
#include "runtime/registry.h"
#include "sim/delay_policy.h"
#include "sim/fault_schedule.h"
#include "sim/topology.h"
#include "workload/spec.h"

namespace lumiere::runtime {

/// Behavior is move-only, so specs carry a thunk instead of an instance.
using BehaviorThunk = std::function<std::unique_ptr<adversary::Behavior>()>;

/// Which MessageTransport implementation carries the cluster's traffic.
enum class TransportKind {
  kSim,  ///< sim::Network — deterministic, adversary-controlled (default).
  kTcp,  ///< transport::TcpTransportAdapter — real frames over localhost,
         ///< one thread per node, wall-clock timers.
};

[[nodiscard]] const char* to_string(TransportKind kind);

/// One node's fully resolved construction spec.
struct NodeSpec {
  ProtocolConfig protocol;
  TimePoint join_time = TimePoint::origin();
  std::int64_t clock_drift_ppm = 0;
  PayloadProvider payload_provider;
  /// Client-driven workload for this node (cluster default unless
  /// overridden); a per-node payload override disables it instead.
  std::optional<workload::WorkloadSpec> workload;
  BehaviorThunk behavior;  ///< never null after ScenarioBuilder::scenario().
};

/// One initially Byzantine node, by adversary::make_behavior name.
struct BehaviorAssignment {
  ProcessId node = kNoProcess;
  std::string behavior;

  bool operator==(const BehaviorAssignment&) const = default;
};

/// One node's overrides of the cluster-wide defaults; unset fields inherit.
struct NodeOverride {
  std::optional<std::string> pacemaker;
  std::optional<std::string> core;
  std::optional<TimePoint> join_time;
  std::optional<std::int64_t> drift_ppm;
  BehaviorThunk behavior;
  /// A raw payload source; displaces the cluster workload on this node.
  PayloadProvider payload;
  std::optional<workload::WorkloadSpec> workload;
};

/// Everything one experiment is, as plain data: the (§2) model's n, f,
/// Delta and x, the protocol stack, the adversary's environment, the
/// fault script, the clients and the transport. ScenarioBuilder's setters
/// write into one; the fuzzer samples one (fuzz/fuzz_case.h); spec_io
/// reads and writes the text-format subset of one (runtime/spec_io.h).
/// ScenarioBuilder::validate() checks it and scenario() resolves it.
struct ScenarioSpec {
  ProtocolParams params = ProtocolParams::for_n(4, Duration::millis(10));
  /// The cluster-wide protocol stack (per-node overrides below win).
  ProtocolConfig protocol;
  /// Everything-determining seed (leader schedules, keys, delay draws).
  std::uint64_t seed = 1;
  TransportKind transport = TransportKind::kSim;
  /// First localhost port (TCP transport only); node i listens on
  /// tcp_base_port + i.
  std::uint16_t tcp_base_port = 0;

  /// Authenticator scheme registry name (crypto/authenticator.h). The
  /// default is the HMAC sim scheme every golden digest pins;
  /// schemes with real verify cost pair naturally with `pipeline`.
  std::string auth_scheme = crypto::kDefaultScheme;

  /// Staged decode+verify worker pool per node (TCP transport only;
  /// default off — the deterministic sim path never runs one).
  PipelineSpec pipeline;

  /// Global Stabilization Time (sim transport only): before it the
  /// adversary's proposed delays apply unclamped up to GST + Delta; after
  /// it every message obeys the Delta bound.
  TimePoint gst = TimePoint::origin();
  /// The adversary's delay policy (sim transport only; nullptr = worst
  /// permitted: every message arrives exactly at max(GST, t) + Delta).
  /// A resolved Scenario holds the topology preset's policy here.
  std::shared_ptr<sim::DelayPolicy> delay;
  /// Named WAN topology preset (empty = none; sim only; mutually
  /// exclusive with `delay`).
  std::string topology;
  /// Processors join at uniform random times in [origin, join_stagger].
  Duration join_stagger = Duration::zero();
  /// Each processor's clock drifts by a draw uniform in [-max, +max] ppm.
  std::int64_t drift_ppm_max = 0;

  /// Raw block payload source on every node (exclusive with `workload`).
  PayloadProvider payload;
  /// Client-driven workload on every node (src/workload/).
  std::optional<workload::WorkloadSpec> workload;
  /// Data-dissemination layer (src/dissem/): when on, every workload
  /// node runs a Disseminator and proposals order certified batch
  /// references instead of inline payloads. Requires the client-driven
  /// workload. Off = inline batches (the default; all goldens pin this
  /// mode).
  bool dissem = false;

  /// Observability (src/obs/): the per-node status endpoints and their
  /// admin token (TCP transport only). The span tracer is always on.
  obs::ObsSpec obs;

  /// Scripted network/membership events in declaration order: every
  /// event but a churn window's rejoin must come no earlier than the one
  /// declared before it. A resolved Scenario holds them stably sorted by
  /// time (same-instant events fire in declaration order). Executed by
  /// the sim event loop; partitions and crashes also have a best-effort
  /// realtime analogue on the TCP transport.
  sim::FaultSchedule schedule;

  /// Initial behaviors: `behaviors` builds one per node (null = all
  /// honest); a `byzantine` entry wins over it for its node (the last
  /// entry for a node wins), and a per-node override's behavior wins
  /// over both.
  adversary::BehaviorFactory behaviors;
  std::vector<BehaviorAssignment> byzantine;
  std::map<ProcessId, NodeOverride> overrides;
};

/// A fully resolved deployment (ScenarioBuilder's output and Cluster's
/// input): the validated spec plus one NodeSpec per node
/// (`nodes.size() == params.n`).
struct Scenario : ScenarioSpec {
  std::vector<NodeSpec> nodes;
};

class ScenarioBuilder {
 public:
  /// Per-node override block, obtained from ScenarioBuilder::node(id):
  /// each setter writes one field of that node's NodeOverride. It refers
  /// into the builder, so it must not outlive it.
  class NodeTweak {
   public:
    explicit NodeTweak(NodeOverride& node) : node_(&node) {}
    NodeTweak& pacemaker(std::string name) { return set(node_->pacemaker, std::move(name)); }
    NodeTweak& core(std::string name) { return set(node_->core, std::move(name)); }
    NodeTweak& join_time(TimePoint at) { return set(node_->join_time, at); }
    NodeTweak& drift_ppm(std::int64_t ppm) { return set(node_->drift_ppm, ppm); }
    NodeTweak& behavior(BehaviorThunk make) { return set(node_->behavior, std::move(make)); }
    NodeTweak& payload(PayloadProvider provider) {
      return set(node_->payload, std::move(provider));
    }
    NodeTweak& workload(workload::WorkloadSpec spec) {
      return set(node_->workload, std::move(spec));
    }

   private:
    template <typename Field, typename Value>
    NodeTweak& set(Field& field, Value&& value) {
      field = std::forward<Value>(value);
      return *this;
    }
    NodeOverride* node_;
  };

  ScenarioBuilder() = default;
  /// Starts from a finished description (a sampled fuzz case, a parsed
  /// spec file); the setters below still apply on top.
  explicit ScenarioBuilder(ScenarioSpec spec) : spec_(std::move(spec)) {}

  // ---- cluster-wide defaults (every node inherits unless overridden) ----
  ScenarioBuilder& params(ProtocolParams params) { return set(spec_.params, params); }
  ScenarioBuilder& pacemaker(std::string name) {
    return set(spec_.protocol.pacemaker, std::move(name));
  }
  ScenarioBuilder& core(std::string name) { return set(spec_.protocol.core, std::move(name)); }
  ScenarioBuilder& gamma(Duration gamma) { return set(spec_.protocol.gamma, gamma); }
  ScenarioBuilder& fever(FeverOptions options) { return set(spec_.protocol.fever, options); }
  ScenarioBuilder& seed(std::uint64_t seed) { return set(spec_.seed, seed); }
  /// Selects the authenticator scheme by registry name
  /// (crypto::scheme_names()); validate() rejects unknown names.
  ScenarioBuilder& auth_scheme(std::string name) {
    return set(spec_.auth_scheme, std::move(name));
  }
  /// Enables the per-node staged verification pipeline (runtime/pipeline.h).
  /// TCP transport only — the sim transport is single-threaded by design.
  ScenarioBuilder& pipeline(PipelineSpec spec) { return set(spec_.pipeline, spec); }
  ScenarioBuilder& workload(PayloadProvider provider) {
    return set(spec_.payload, std::move(provider));
  }
  /// Client-driven workload (src/workload/): drivers, bounded mempools
  /// and end-to-end latency accounting on every node. Mutually exclusive
  /// with the raw PayloadProvider form above.
  ScenarioBuilder& workload(workload::WorkloadSpec spec) {
    return set(spec_.workload, std::move(spec));
  }
  /// Enables the data-dissemination layer (src/dissem/): batches stream
  /// and certify beneath consensus, proposals carry (batch_id, cert)
  /// references, committed references resolve (fetch-on-miss) before
  /// delivery. Requires the client-driven workload form above. Its
  /// cadences and limits are dissem/disseminator.h's constants.
  ScenarioBuilder& dissemination() { return set(spec_.dissem, true); }
  /// Does nothing. Block sync (src/sync/) is always on; this call
  /// survives only because the bench_e2e workloads still make it, and
  /// goes with the next change to that benchmark.
  ScenarioBuilder& block_sync() { return *this; }
  /// Observability settings (src/obs/): the per-node status endpoints
  /// and admin token, which need the TCP transport.
  ScenarioBuilder& observability(obs::ObsSpec spec) { return set(spec_.obs, std::move(spec)); }
  /// Behavior assignment; default all-honest.
  ScenarioBuilder& behaviors(adversary::BehaviorFactory factory) {
    return set(spec_.behaviors, std::move(factory));
  }

  // ---- the adversary's environment (sim transport) ----
  ScenarioBuilder& gst(TimePoint gst) { return set(spec_.gst, gst); }
  ScenarioBuilder& delay(std::shared_ptr<sim::DelayPolicy> policy) {
    return set(spec_.delay, std::move(policy));
  }
  /// Processors join (lc = 0) at uniform random times in [origin,
  /// stagger] — the paper's arbitrary pre-GST desynchronization. Zero =
  /// synchronized start. A per-node join_time override wins.
  ScenarioBuilder& join_stagger(Duration stagger) { return set(spec_.join_stagger, stagger); }
  /// Bounded clock drift: each processor gets a deterministic rate skew
  /// uniform in [-max, +max] ppm. Zero = perfect clocks.
  ScenarioBuilder& drift_ppm_max(std::int64_t max) { return set(spec_.drift_ppm_max, max); }
  /// Named WAN topology preset ("lan", "wan3", "wan5"): per-link delays
  /// from a region map (sim only; mutually exclusive with delay()).
  ScenarioBuilder& topology(std::string preset) {
    return set(spec_.topology, std::move(preset));
  }

  // ---- the fault schedule (scripted network/membership events) ----
  // Events must be declared in timeline order (non-decreasing times);
  // validate() rejects out-of-order scripts so a scenario reads
  // top-to-bottom as a timeline. Multiple events may share one instant
  // (they fire in declaration order).

  /// From `at`, links between distinct `groups` are cut; cross-cut
  /// traffic parks until heal(). Nodes in no group keep all their links.
  ScenarioBuilder& partition(std::vector<std::vector<ProcessId>> groups, TimePoint at);
  /// From `at`, the directed links from any node in `from` to any node in
  /// `to` are cut ONE-WAY (that traffic parks until heal(); the reverse
  /// direction flows). Independent of the symmetric partition layer; a
  /// node may appear on both sides (isolating its outbound half).
  ScenarioBuilder& asym_partition(std::vector<ProcessId> from, std::vector<ProcessId> to,
                                  TimePoint at);
  /// Removes the active partitions (symmetric and asymmetric) at `at` and
  /// releases parked traffic. Healing with no active partition is a
  /// deterministic no-op.
  ScenarioBuilder& heal(TimePoint at);
  /// From `at`, `node` runs the behavior named `behavior`
  /// (adversary::make_behavior; "honest" scripts a repentant node). The
  /// node counts against the Byzantine budget for the whole run — metrics
  /// and honest_ids() treat ever-Byzantine as Byzantine.
  ScenarioBuilder& behavior_change(ProcessId node, std::string behavior, TimePoint at);
  /// From `at`, `node`'s traffic is cut both ways and lost (the process
  /// is down; local state persists — see sim/fault_schedule.h).
  ScenarioBuilder& crash(ProcessId node, TimePoint at);
  /// Readmits a crashed `node` at `at`; it catches up through the
  /// protocol.
  ScenarioBuilder& recover(ProcessId node, TimePoint at);
  /// Churn: `node` leaves the cluster at `leave_at` and rejoins at
  /// `rejoin_at` (crash/recover semantics, recorded distinctly in traces).
  /// The rejoin is checked against its leave, not the declaration order,
  /// so a churn window may span later-declared events.
  ScenarioBuilder& churn(ProcessId node, TimePoint leave_at, TimePoint rejoin_at);
  /// Swaps the adversary's global delay policy at `at` (sim only;
  /// nullptr = worst permitted).
  ScenarioBuilder& delay_change(std::shared_ptr<sim::DelayPolicy> policy, TimePoint at);
  /// Overrides the directed link from->to with `policy` at `at` (sim
  /// only; nullptr restores the global policy for that link).
  ScenarioBuilder& link_delay(ProcessId from, ProcessId to,
                              std::shared_ptr<sim::DelayPolicy> policy, TimePoint at);

  // ---- transport selection (the simulator unless this is called) ----
  ScenarioBuilder& transport_tcp(std::uint16_t base_port) {
    spec_.transport = TransportKind::kTcp;
    return set(spec_.tcp_base_port, base_port);
  }

  // ---- per-node overrides ----
  NodeTweak node(ProcessId id) { return NodeTweak(spec_.overrides[id]); }

  /// Every configuration error, one actionable message each; empty =
  /// valid. scenario() calls this and throws on the first failure.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// Resolves defaults + overrides into the final per-node specs. Throws
  /// std::invalid_argument listing every validate() error.
  [[nodiscard]] Scenario scenario() const;

 private:
  template <typename Field, typename Value>
  ScenarioBuilder& set(Field& field, Value&& value) {
    field = std::forward<Value>(value);
    return *this;
  }
  ScenarioBuilder& push(sim::FaultEvent event);

  ScenarioSpec spec_;
};

}  // namespace lumiere::runtime
