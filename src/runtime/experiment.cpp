#include "runtime/experiment.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "adversary/behaviors.h"
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
                                  std::uint32_t f_a, std::uint64_t seed) {
  ScenarioBuilder builder = table1_scenario(pacemaker, n, seed);
  builder.delay(std::make_shared<sim::FixedDelay>(Duration::micros(500)));
  add_silent_leaders(builder, f_a);
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
