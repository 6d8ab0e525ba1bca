// Region outage: the fault-schedule engine running a WAN story end to end.
//
//   ./build/examples/region_outage
//
// Seven processors on the `wan3` topology preset (three regions, node i
// in region i % 3, inter-region one-way delays 40-65ms). The schedule:
//
//   t =  6s  region 2 ({2, 5}) is cut off — a region outage. The other
//            five processors still hold a 2f+1 = 5 quorum, so decisions
//            keep flowing; the cut region's traffic parks.
//   t = 12s  the outage heals; parked traffic is released and the
//            stragglers catch up through the protocol.
//   t = 14s  churn: processor 6 leaves (rolling restart) ...
//   t = 16s  ... and rejoins, catching up the same way.
//
// The timeline shows what the paper's Section 7 deployment claim looks
// like on a WAN: faults cost the affected processors a catch-up, not the
// cluster its responsiveness.
#include <cstdio>
#include <string_view>

#include "runtime/cluster.h"

using namespace lumiere;

int main() {
  // Delta must clear the preset's worst one-way link (65ms); see
  // sim/topology.h.
  const ProtocolParams params = ProtocolParams::for_n(7, Duration::millis(100));
  const TimePoint outage{Duration::seconds(6).ticks()};
  const TimePoint healed{Duration::seconds(12).ticks()};

  runtime::ScenarioBuilder builder;
  builder.params(params)
      .pacemaker("lumiere")
      .core("chained-hotstuff")
      .seed(7)
      .topology("wan3")
      .partition({{0, 1, 3, 4, 6}, {2, 5}}, outage)
      .heal(healed)
      .churn(6, TimePoint(Duration::seconds(14).ticks()),
             TimePoint(Duration::seconds(16).ticks()));

  runtime::Cluster cluster(builder);
  cluster.start();

  std::printf("region_outage: n = 7 on wan3 (regions {0,3,6} {1,4} {2,5}), Delta = 100ms\n"
              "outage cuts region 2 at 6s, heals at 12s; node 6 churns at 14s..16s\n\n");
  std::printf("%7s | %9s | %9s | %9s | %7s | %s\n", "t (s)", "min view", "max view",
              "decisions", "parked", "regime");

  for (int tick = 1; tick <= 20; ++tick) {
    cluster.run_for(Duration::seconds(1));
    const double t = static_cast<double>(tick);
    const char* regime = t <= 6.0    ? "healthy"
                         : t <= 12.0 ? "region 2 cut (quorum holds)"
                         : t <= 14.0 ? "healed"
                         : t <= 16.0 ? "node 6 churned away"
                                     : "everyone back";
    std::printf("%7.0f | %9lld | %9lld | %9zu | %7zu | %s\n", t,
                static_cast<long long>(cluster.min_honest_view()),
                static_cast<long long>(cluster.max_honest_view()),
                cluster.metrics().decisions().size(), cluster.network().parked_count(), regime);
  }

  // The trace log keeps each fired script event as a custom note.
  const sim::TraceLog& trace = cluster.trace();
  std::printf("\nscripted events (as the trace log recorded them):\n");
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace.events()[i].kind != sim::TraceKind::kCustom) continue;
    const std::string_view note = trace.note(i);
    std::printf("  %5.1fs  %.*s\n", trace.events()[i].at.to_seconds(),
                static_cast<int>(note.size()), note.data());
  }

  const auto during = cluster.metrics().decisions_between(outage, healed);
  const auto after = cluster.metrics().decisions_between(
      healed, TimePoint(Duration::seconds(20).ticks()));
  std::printf("\ndecisions during the outage: %llu (quorum survived the cut)\n"
              "decisions after heal:        %llu\n"
              "min == max honest view at the end means the cut region and the churned\n"
              "node both caught up — the outage cost them a catch-up, not the cluster\n"
              "its progress.\n",
              static_cast<unsigned long long>(during),
              static_cast<unsigned long long>(after));
  return 0;
}
