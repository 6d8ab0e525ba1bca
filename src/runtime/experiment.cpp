#include "runtime/experiment.h"

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "adversary/behaviors.h"
#include "core/lumiere.h"
#include "pacemaker/fever.h"
#include "pacemaker/lp22.h"
#include "pacemaker/messages.h"

namespace lumiere::runtime {

ScenarioBuilder table1_scenario(const std::string& pacemaker, std::uint32_t n,
                                std::uint64_t seed) {
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(n, kTable1Delta))
      .pacemaker(pacemaker)
      .core("simple-view")
      .seed(seed);
  return builder;
}

Duration default_gamma(const std::string& pacemaker, const ProtocolParams& params) {
  if (pacemaker == "lp22" || pacemaker == "raresync") {
    return pacemaker::Lp22Pacemaker::default_gamma(params);
  }
  if (pacemaker == "fever" || pacemaker == "basic-lumiere") {
    return pacemaker::FeverPacemaker::default_gamma(params, 2);
  }
  if (pacemaker == "lumiere") return core::LumierePacemaker::default_gamma(params);
  return Duration::zero();
}

void add_silent_leaders(ScenarioBuilder& builder, std::uint32_t f_a) {
  if (f_a == 0) return;
  std::vector<ProcessId> ids;
  for (ProcessId id = 0; id < f_a; ++id) ids.push_back(id);
  builder.behaviors(adversary::byzantine_set(std::move(ids), [](ProcessId) {
    return std::make_unique<adversary::SilentLeaderBehavior>();
  }));
}

ScenarioBuilder worst_case_scenario(const std::string& pacemaker, std::uint32_t n,
                                    std::uint64_t seed) {
  ScenarioBuilder builder = table1_scenario(pacemaker, n, seed);
  builder.gst(TimePoint::origin());
  builder.delay(nullptr);  // worst permitted: max(GST, t) + Delta
  add_silent_leaders(builder, (n - 1) / 3);
  return builder;
}

ScenarioBuilder eventual_scenario(const std::string& pacemaker, std::uint32_t n,
                                  std::uint32_t f_a, std::uint64_t seed, Duration delta) {
  ScenarioBuilder builder = table1_scenario(pacemaker, n, seed);
  builder.delay(std::make_shared<sim::FixedDelay>(delta));
  add_silent_leaders(builder, f_a);
  return builder;
}

ScenarioBuilder figure1_scenario(const std::string& pacemaker, std::uint32_t n,
                                 std::uint64_t seed) {
  ScenarioBuilder builder = table1_scenario(pacemaker, n, seed);
  builder.delay(std::make_shared<sim::FixedDelay>(Duration::micros(200)));
  builder.behaviors(adversary::byzantine_set(
      {3}, [](ProcessId) { return std::make_unique<adversary::SilentLeaderBehavior>(); }));
  return builder;
}

ScenarioBuilder selective_qc_scenario(const std::string& pacemaker, std::uint32_t n,
                                      std::uint64_t seed) {
  ScenarioBuilder builder = table1_scenario(pacemaker, n, seed);
  builder.delay(std::make_shared<sim::FixedDelay>(Duration::micros(200)));
  const std::uint32_t f = (n - 1) / 3;
  std::vector<ProcessId> attackers;
  for (ProcessId id = n - f; id < n; ++id) attackers.push_back(id);
  const std::uint32_t favored = (n + 1) / 2;
  builder.behaviors(adversary::byzantine_set(std::move(attackers), [favored](ProcessId) {
    return std::make_unique<adversary::SelectiveQcBehavior>(favored);
  }));
  return builder;
}

ScenarioBuilder warmup_scenario(std::uint32_t n, std::uint64_t seed, bool worst_network) {
  const TimePoint gst(Duration::seconds(1).ticks());
  ScenarioBuilder builder = table1_scenario("lumiere", n, seed);
  builder.gst(gst);
  builder.join_stagger(Duration::millis(300));
  // Null is the worst permitted network: max(GST, t) + Delta.
  builder.delay(worst_network ? nullptr
                              : std::make_shared<sim::PreGstChaosDelay>(
                                    gst, Duration::micros(500), Duration::millis(2),
                                    Duration::seconds(2)));
  return builder;
}

WindowMeasure measure_worst_case(const ScenarioBuilder& scenario, Duration run,
                                 std::size_t windows) {
  Cluster cluster(scenario);
  cluster.run_for(run);
  const MetricsCollector& metrics = cluster.metrics();
  const auto& decisions = metrics.decisions();
  WindowMeasure out;
  out.decisions = decisions.size();
  out.epoch_view_msgs = metrics.count_for_type(pacemaker::kEpochViewMsg);
  if (decisions.empty()) return out;
  std::uint64_t comm = decisions.front().msgs_before;
  Duration latency = decisions.front().at - TimePoint::origin();
  for (std::size_t i = 1; i < decisions.size() && i <= windows; ++i) {
    comm = std::max(comm, decisions[i].msgs_before - decisions[i - 1].msgs_before);
    latency = std::max(latency, decisions[i].at - decisions[i - 1].at);
  }
  out.comm = comm;
  out.latency = latency;
  return out;
}

WindowMeasure measure_eventual(const ScenarioBuilder& scenario, Duration run,
                               std::size_t warmup) {
  Cluster cluster(scenario);
  cluster.run_for(run);
  const MetricsCollector& metrics = cluster.metrics();
  WindowMeasure out;
  out.comm = metrics.max_msg_gap(TimePoint::origin(), warmup);
  out.latency = metrics.max_decision_gap(TimePoint::origin(), warmup);
  out.decisions = metrics.decisions().size();
  out.epoch_view_msgs = metrics.count_for_type(pacemaker::kEpochViewMsg);
  return out;
}

WarmupMeasure measure_warmup(const ScenarioBuilder& scenario, Duration after_gst) {
  Cluster cluster(scenario);
  cluster.start();
  const TimePoint gst = cluster.scenario().gst;
  const std::vector<ProcessId> honest = cluster.honest_ids();
  WarmupMeasure out;
  std::uint64_t last_heavy = 0;
  // Sampled from the origin: the bootstrap heavy exchange goes out before
  // GST and still counts.
  while (cluster.sim().now() < gst + after_gst) {
    cluster.run_for(Duration::millis(20));
    const Duration since_gst = cluster.sim().now() - gst;
    const std::uint64_t heavy = cluster.metrics().count_for_type(pacemaker::kEpochViewMsg);
    if (heavy != last_heavy) {
      last_heavy = heavy;
      out.quiescence = since_gst;
    }
    for (std::size_t i = 0; i < honest.size() && !out.first_success; ++i) {
      const auto& pm =
          static_cast<const core::LumierePacemaker&>(cluster.node(honest[i]).pacemaker());
      const Epoch e = pm.current_epoch();
      if (e >= 0 && pm.success_tracker().success(e)) out.first_success = since_gst;
    }
  }
  out.first_decision = cluster.metrics().latency_to_first_decision(gst);
  return out;
}

CommitLag measure_commit_lag(const ScenarioBuilder& scenario, Duration run) {
  Cluster cluster(scenario);
  cluster.run_for(run);
  std::map<View, TimePoint> qc_at;
  for (const auto& decision : cluster.metrics().decisions()) {
    qc_at.emplace(decision.view, decision.at);
  }
  const auto& entries = cluster.node(0).ledger().entries();
  CommitLag out;
  out.commits = entries.size();
  if (!entries.empty()) out.frontier = entries.back().view();
  double total_ms = 0;
  std::size_t joined = 0;
  for (const auto& entry : entries) {
    const auto it = qc_at.find(entry.view());
    if (it == qc_at.end()) continue;
    total_ms += static_cast<double>((entry.committed_at - it->second).ticks()) / 1000.0;
    ++joined;
  }
  if (joined > 0) out.mean_ms = total_ms / static_cast<double>(joined);
  return out;
}

obs::LedgerSummary measure_sync_cost(const ScenarioBuilder& scenario, std::size_t target_spans,
                                     Duration cap) {
  Cluster cluster(scenario);
  // One episode completes ~n spans, one per node; large n under the
  // worst permitted network is costly to simulate past enough episodes.
  const obs::SyncTracer* tracer = cluster.sync_tracer();
  for (Duration ran = Duration::zero(); ran < cap; ran = ran + Duration::seconds(2)) {
    cluster.run_for(Duration::seconds(2));
    if (tracer->completed_count() >= target_spans) break;
  }
  const std::vector<bool> byzantine = cluster.byzantine_mask();
  std::vector<obs::SyncSpan> honest;
  for (const obs::SyncSpan& span : tracer->completed_spans()) {
    if (span.node < byzantine.size() && !byzantine[span.node]) honest.push_back(span);
  }
  return obs::ComplexityLedger::summarize(honest);
}

}  // namespace lumiere::runtime
