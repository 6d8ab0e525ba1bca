// Reproduces Figure 1: "LP22: Epoch-synchronization and optimistically
// responsive QC generation."
//
// The figure's story: after the heavy all-to-all synchronization at an
// epoch's start, three good views produce QCs almost instantly (network
// speed, delta << Delta); the fourth view's leader is faulty; because
// LP22 never bumps local clocks on QCs, everyone then sits until their
// clock crawls to c_{V(e)+4} — almost 3 * Gamma of dead time.
//
// We run LP22 with one silent-leader Byzantine process on a fast network
// and print the decision timeline around the worst stall, then the same
// scenario under Basic Lumiere and Lumiere (whose clock bumps cap the
// stall at ~Gamma), plus a per-protocol summary of the ten worst stalls.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"

namespace lumiere::bench {
namespace {

struct Timeline {
  std::string protocol;
  std::vector<runtime::MetricsCollector::Decision> decisions;
  Duration gamma{0};
};

Timeline run_scenario(const std::string& pacemaker, std::uint32_t n) {
  ScenarioBuilder builder = table1_scenario(pacemaker, n, 7001);
  builder.delay(std::make_shared<adversary::UniformFastDelay>(Duration::micros(200)));
  builder.behaviors(adversary::byzantine_set(
      {3}, [](ProcessId) { return std::make_unique<adversary::SilentLeaderBehavior>(); }));
  Cluster cluster(builder);
  cluster.run_for(Duration::seconds(45));
  Timeline timeline;
  timeline.protocol = pacemaker;
  timeline.decisions = cluster.metrics().decisions();
  if (pacemaker == "lp22") {
    timeline.gamma = Duration::millis(40);  // (x+1) Delta
  } else if (pacemaker == "basic-lumiere") {
    timeline.gamma = Duration::millis(80);  // 2(x+1) Delta
  } else {
    timeline.gamma = Duration::millis(100);  // 2(x+2) Delta
  }
  return timeline;
}

void print_worst_window(const Timeline& timeline) {
  if (timeline.decisions.size() < 8) {
    std::printf("  (too few decisions)\n");
    return;
  }
  // Find the worst stall past warmup.
  std::size_t worst_index = 1;
  Duration worst = Duration::zero();
  for (std::size_t i = 11; i < timeline.decisions.size(); ++i) {
    const Duration gap = timeline.decisions[i].at - timeline.decisions[i - 1].at;
    if (gap > worst) {
      worst = gap;
      worst_index = i;
    }
  }
  std::printf("  worst stall: %.1f ms (= %.2f Gamma) before view %lld\n",
              static_cast<double>(worst.ticks()) / 1000.0,
              static_cast<double>(worst.ticks()) / static_cast<double>(timeline.gamma.ticks()),
              static_cast<long long>(timeline.decisions[worst_index].view));
  std::printf("  %-10s %-12s %-10s\n", "view", "decided(ms)", "gap(ms)");
  const std::size_t from = worst_index >= 4 ? worst_index - 4 : 0;
  const std::size_t to = std::min(worst_index + 3, timeline.decisions.size() - 1);
  for (std::size_t i = from; i <= to; ++i) {
    const Duration gap =
        i > 0 ? timeline.decisions[i].at - timeline.decisions[i - 1].at : Duration::zero();
    std::printf("  %-10lld %-12.2f %-10.2f%s\n",
                static_cast<long long>(timeline.decisions[i].view),
                static_cast<double>(timeline.decisions[i].at.ticks()) / 1000.0,
                static_cast<double>(gap.ticks()) / 1000.0, i == worst_index ? "   <== stall" : "");
  }
}

void print_top_stalls(const Timeline& timeline) {
  std::vector<Duration> gaps;
  for (std::size_t i = 11; i < timeline.decisions.size(); ++i) {
    gaps.push_back(timeline.decisions[i].at - timeline.decisions[i - 1].at);
  }
  std::sort(gaps.rbegin(), gaps.rend());
  std::printf("  top stalls (ms):");
  for (std::size_t i = 0; i < std::min<std::size_t>(10, gaps.size()); ++i) {
    std::printf(" %.1f", static_cast<double>(gaps[i].ticks()) / 1000.0);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace lumiere::bench

int main() {
  using namespace lumiere::bench;
  std::printf(
      "bench_fig1: Figure 1 scenario — one silent Byzantine leader, fast network\n"
      "(delta = 0.2ms << Delta = 10ms), n = 16 (f = 5; LP22 epochs have f+1 = 6 views).\n");
  for (const char* pacemaker : {"lp22", "basic-lumiere", "lumiere"}) {
    const Timeline timeline = run_scenario(pacemaker, 16);
    std::printf("\n--- %s (Gamma = %.0f ms, %zu decisions) ---\n", timeline.protocol.c_str(),
                static_cast<double>(timeline.gamma.ticks()) / 1000.0,
                timeline.decisions.size());
    print_worst_window(timeline);
    print_top_stalls(timeline);
  }
  std::printf(
      "\nReading guide: LP22's worst stall approaches (f+1) * Gamma_LP22 = 240 ms\n"
      "(the Figure 1 'enter view V(e)+4 after no progress' effect, scaled to this\n"
      "epoch length); Basic Lumiere and Lumiere cap it near one leader tenure\n"
      "because QCs bump lagging clocks forward.\n");
  return 0;
}
