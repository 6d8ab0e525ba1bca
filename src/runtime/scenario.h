// ScenarioBuilder: one construction API for every deployment shape.
//
// A scenario = protocol params + an adversary (delays, GST, behaviors) +
// one protocol stack per node + a transport. The builder composes
// cluster-wide defaults with per-node overrides, so heterogeneous
// deployments (mixed pacemakers, per-node drift / join time / behavior)
// and sim-vs-TCP parity are expressed through the same few lines:
//
//   ScenarioBuilder builder;
//   builder.params(ProtocolParams::for_n(4, Duration::millis(10)))
//       .pacemaker("lumiere")
//       .core("chained-hotstuff")
//       .seed(7);
//   builder.node(2).pacemaker("fever").drift_ppm(200);   // override node 2
//   Cluster cluster(builder.scenario());                 // or builder.build()
//   cluster.run_for(Duration::seconds(10));
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
#include "dissem/spec.h"
#include "obs/spec.h"
#include "runtime/pipeline.h"
#include "runtime/registry.h"
#include "sim/delay_policy.h"
#include "sim/fault_schedule.h"
#include "sim/topology.h"
#include "workload/spec.h"

namespace lumiere::runtime {

class Cluster;

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

/// A fully resolved deployment description (ScenarioBuilder's output and
/// Cluster's input). `nodes.size() == params.n`.
struct Scenario {
  ProtocolParams params = ProtocolParams::for_n(4, Duration::millis(10));
  /// Everything-determining seed (leader schedules, keys, delay draws).
  std::uint64_t seed = 1;
  TransportKind transport = TransportKind::kSim;

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
  std::shared_ptr<sim::DelayPolicy> delay;

  /// First localhost port (TCP transport only); node i listens on
  /// tcp_base_port + i.
  std::uint16_t tcp_base_port = 0;

  /// Scripted network/membership events, sorted by time (stable: events
  /// declared at the same instant fire in declaration order). Executed by
  /// the sim event loop; partitions and crashes also have a best-effort
  /// realtime analogue on the TCP transport.
  sim::FaultSchedule schedule;
  /// The topology preset `delay` was resolved from (empty = none); kept
  /// for display.
  std::string topology;

  /// Data-dissemination layer (src/dissem/): when set, every workload
  /// node runs a Disseminator and proposals order certified batch
  /// references instead of inline payloads. Requires the client-driven
  /// workload. Absent = legacy inline batches (the default; all goldens
  /// pin this mode).
  std::optional<dissem::DissemSpec> dissem;

  /// Observability (src/obs/): the view-sync span tracer (default-on —
  /// passive, golden digests are byte-identical either way), completed-
  /// span/trace-log capacities, and the per-node status endpoints
  /// (status_base_port, TCP transport only).
  obs::ObsSpec obs;

  std::vector<NodeSpec> nodes;
};

class ScenarioBuilder {
 public:
  /// Per-node override block, obtained from ScenarioBuilder::node(id).
  /// Unset fields inherit the cluster-wide defaults.
  class NodeTweak {
   public:
    NodeTweak& pacemaker(std::string name);
    NodeTweak& core(std::string name);
    NodeTweak& gamma(Duration gamma);
    NodeTweak& lumiere(LumiereOptions options);
    NodeTweak& fever(FeverOptions options);
    NodeTweak& view_timeout(Duration timeout);
    NodeTweak& join_time(TimePoint at);
    NodeTweak& drift_ppm(std::int64_t ppm);
    NodeTweak& behavior(BehaviorThunk make);
    NodeTweak& payload(PayloadProvider provider);
    NodeTweak& workload(workload::WorkloadSpec spec);

   private:
    friend class ScenarioBuilder;
    std::optional<std::string> pacemaker_;
    std::optional<std::string> core_;
    std::optional<Duration> gamma_;
    std::optional<LumiereOptions> lumiere_;
    std::optional<FeverOptions> fever_;
    std::optional<Duration> view_timeout_;
    std::optional<TimePoint> join_time_;
    std::optional<std::int64_t> drift_ppm_;
    BehaviorThunk behavior_;
    PayloadProvider payload_;
    std::optional<workload::WorkloadSpec> workload_;
  };

  ScenarioBuilder() = default;

  // ---- cluster-wide defaults (every node inherits unless overridden) ----
  ScenarioBuilder& params(ProtocolParams params);
  ScenarioBuilder& pacemaker(std::string name);
  ScenarioBuilder& core(std::string name);
  ScenarioBuilder& gamma(Duration gamma);
  ScenarioBuilder& lumiere(LumiereOptions options);
  ScenarioBuilder& fever(FeverOptions options);
  ScenarioBuilder& view_timeout(Duration timeout);
  ScenarioBuilder& relay_timeout(Duration timeout);
  ScenarioBuilder& seed(std::uint64_t seed);
  /// Selects the authenticator scheme by registry name
  /// (crypto::scheme_names()); validate() rejects unknown names.
  ScenarioBuilder& auth_scheme(std::string name);
  /// Enables the per-node staged verification pipeline (runtime/pipeline.h).
  /// TCP transport only — the sim transport is single-threaded by design.
  ScenarioBuilder& pipeline(PipelineSpec spec);
  ScenarioBuilder& workload(PayloadProvider provider);
  /// Client-driven workload (src/workload/): drivers, bounded mempools
  /// and end-to-end latency accounting on every node. Mutually exclusive
  /// with the raw PayloadProvider form above.
  ScenarioBuilder& workload(workload::WorkloadSpec spec);
  /// Enables the data-dissemination layer (src/dissem/): batches stream
  /// and certify beneath consensus, proposals carry (batch_id, cert)
  /// references, committed references resolve (fetch-on-miss) before
  /// delivery. Requires the client-driven workload form above.
  ScenarioBuilder& dissemination(dissem::DissemSpec spec = {});
  /// Does nothing. Block sync (src/sync/) is always on; this call
  /// survives only because the bench_e2e workloads still make it, and
  /// goes with the next change to that benchmark.
  ScenarioBuilder& block_sync();
  /// Observability knobs (src/obs/): span tracer on/off + capacities and
  /// the per-node status endpoints. The tracer defaults on even without
  /// this call; status endpoints need the TCP transport.
  ScenarioBuilder& observability(obs::ObsSpec spec);
  /// Behavior assignment; default all-honest.
  ScenarioBuilder& behaviors(adversary::BehaviorFactory factory);

  // ---- the adversary's environment (sim transport) ----
  ScenarioBuilder& gst(TimePoint gst);
  ScenarioBuilder& delay(std::shared_ptr<sim::DelayPolicy> policy);
  /// Processors join (lc = 0) at uniform random times in [origin,
  /// stagger] — the paper's arbitrary pre-GST desynchronization. Zero =
  /// synchronized start. A per-node join_time override wins.
  ScenarioBuilder& join_stagger(Duration stagger);
  /// Bounded clock drift: each processor gets a deterministic rate skew
  /// uniform in [-max, +max] ppm. Zero = perfect clocks.
  ScenarioBuilder& drift_ppm_max(std::int64_t max);

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
  ScenarioBuilder& churn(ProcessId node, TimePoint leave_at, TimePoint rejoin_at);
  /// Swaps the adversary's global delay policy at `at` (sim only;
  /// nullptr = worst permitted).
  ScenarioBuilder& delay_change(std::shared_ptr<sim::DelayPolicy> policy, TimePoint at);
  /// Overrides the directed link from->to with `policy` at `at` (sim
  /// only; nullptr restores the global policy for that link).
  ScenarioBuilder& link_delay(ProcessId from, ProcessId to,
                              std::shared_ptr<sim::DelayPolicy> policy, TimePoint at);
  /// Named WAN topology preset ("lan", "wan3", "wan5"): per-link delays
  /// from a region map (sim only; mutually exclusive with delay()).
  ScenarioBuilder& topology(std::string preset);

  // ---- transport selection ----
  ScenarioBuilder& transport_sim();
  ScenarioBuilder& transport_tcp(std::uint16_t base_port);

  // ---- per-node overrides ----
  NodeTweak& node(ProcessId id);

  /// Every configuration error, one actionable message each; empty =
  /// valid. scenario()/build() call this and throw on the first failure.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// Resolves defaults + overrides into the final per-node specs. Throws
  /// std::invalid_argument listing every validate() error.
  [[nodiscard]] Scenario scenario() const;

  /// Convenience: Cluster construction in one call.
  [[nodiscard]] std::unique_ptr<Cluster> build() const;

 private:
  ProtocolParams params_ = ProtocolParams::for_n(4, Duration::millis(10));
  ProtocolConfig protocol_;
  std::uint64_t seed_ = 1;
  TimePoint gst_ = TimePoint::origin();
  std::shared_ptr<sim::DelayPolicy> delay_;
  Duration join_stagger_ = Duration::zero();
  std::int64_t drift_ppm_max_ = 0;
  adversary::BehaviorFactory behavior_for_;
  PayloadProvider workload_;
  std::optional<workload::WorkloadSpec> workload_spec_;
  std::optional<dissem::DissemSpec> dissem_;
  obs::ObsSpec obs_;
  std::string auth_scheme_ = crypto::kDefaultScheme;
  PipelineSpec pipeline_;
  TransportKind transport_ = TransportKind::kSim;
  std::uint16_t tcp_base_port_ = 0;
  std::map<ProcessId, NodeTweak> tweaks_;

  void push_event(sim::FaultEvent event, TimePoint declared_at);
  sim::FaultSchedule schedule_;
  /// One (time, description) per builder call, in call order — the
  /// timeline validate() checks for monotonicity (churn spans a window,
  /// so its rejoin event is exempt from the declaration-order rule).
  std::vector<std::pair<TimePoint, std::string>> declared_;
  std::string topology_;
};

}  // namespace lumiere::runtime
