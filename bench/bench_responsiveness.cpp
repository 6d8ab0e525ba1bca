// Smooth optimistic responsiveness (Theorem 1.1 (3)):
//   * at f_a = 0, steady-state latency tracks the *actual* delay delta,
//     not the conservative bound Delta (delta sweep);
//   * at fixed delta, eventual latency grows linearly in f_a with slope
//     ~Gamma (fault sweep) — O(Delta * f_a + delta).
#include <cstdio>

#include "pacemaker/messages.h"

#include "bench_util.h"

namespace lumiere::bench {
namespace {

double mean_gap_ms(const std::string& pacemaker, Duration delta_actual, std::uint32_t f_a,
                   std::uint32_t n) {
  ScenarioBuilder builder = table1_scenario(pacemaker, n, 3001);
  builder.delay(std::make_shared<sim::FixedDelay>(delta_actual));
  add_silent_leaders(builder, f_a);
  Cluster cluster(builder);
  cluster.run_for(Duration::seconds(60));
  const auto& decisions = cluster.metrics().decisions();
  if (decisions.size() < 40) return -1.0;
  // Mean steady-state gap over the post-warmup suffix.
  const std::size_t start = 30;
  const Duration span = decisions.back().at - decisions[start].at;
  return static_cast<double>(span.ticks()) / 1000.0 /
         static_cast<double>(decisions.size() - 1 - start);
}

double worst_gap_ms(const std::string& pacemaker, std::uint32_t f_a, std::uint32_t n) {
  const auto gap =
      runtime::measure_eventual(runtime::eventual_scenario(pacemaker, n, f_a, 3002),
                                Duration::seconds(90), /*warmup=*/30)
          .latency;
  return gap ? static_cast<double>(gap->ticks()) / 1000.0 : -1.0;
}

}  // namespace
}  // namespace lumiere::bench

int main() {
  using namespace lumiere::bench;
  using lumiere::Duration;
  const std::uint32_t n = 7;
  std::printf("bench_responsiveness: smooth optimistic responsiveness, n = %u, Delta = 10ms\n",
              n);

  std::printf("\n--- delta sweep at f_a = 0: mean steady-state decision gap (ms) ---\n");
  std::printf("%-16s", "delta (ms)");
  const std::vector<Duration> deltas = {Duration::micros(100), Duration::micros(300),
                                        Duration::millis(1), Duration::millis(3),
                                        Duration::millis(10)};
  for (const Duration d : deltas) {
    std::printf(" | %8.1f", static_cast<double>(d.ticks()) / 1000.0);
  }
  std::printf("\n");
  for (const char* pacemaker : {"lp22", "fever", "basic-lumiere", "lumiere"}) {
    std::printf("%-16s", pacemaker);
    for (const Duration d : deltas) {
      std::printf(" | %8.2f", mean_gap_ms(pacemaker, d, 0, n));
    }
    std::printf("\n");
  }
  std::printf(
      "(expected: Fever/Basic-Lumiere/Lumiere columns scale with delta — ~2-4\n"
      " message delays per decision. LP22 pins at ~Gamma = 40ms regardless of\n"
      " delta: its epoch boundaries are clock-paced, so responsiveness holds\n"
      " only within an epoch — the Table 1 'eventual worst-case latency\n"
      " O(n Delta)' entry made visible.)\n");

  std::printf("\n--- f_a sweep at delta = 0.5ms: worst steady-state decision gap (ms) ---\n");
  std::printf("%-16s", "f_a");
  for (std::uint32_t f_a = 0; f_a <= 2; ++f_a) std::printf(" | %8u", f_a);
  std::printf("\n");
  for (const char* pacemaker : {"lp22", "fever", "basic-lumiere", "lumiere"}) {
    std::printf("%-16s", pacemaker);
    for (std::uint32_t f_a = 0; f_a <= 2; ++f_a) {
      std::printf(" | %8.1f", worst_gap_ms(pacemaker, f_a, n));
    }
    std::printf("\n");
  }
  std::printf(
      "(expected: Fever/Basic-Lumiere grow linearly in f_a with slope ~2 Gamma\n"
      " [one leader tenure]; Lumiere's slope is ~4 Gamma because its bridged\n"
      " random schedule can place a faulty leader's tenures back-to-back across\n"
      " segment boundaries — still O(f_a * Delta), i.e. smooth. LP22's stalls\n"
      " are epoch-length-bound instead: Omega(n Delta) once f_a > 0.)\n");

  // --- Section 3.5 adversary: selective-QC (gap-widening) attack -------
  // f Byzantine leaders do all their duties but announce QCs/VCs only to
  // half the cluster, starving the rest of clock bumps while epochs still
  // "produce QCs". The success criterion (2f+1 leaders, all 10 QCs each)
  // plus the honest QC deadline must keep eventual latency O(f_a Gamma).
  std::printf("\n--- Section 3.5 selective-QC attack, n = 7, f = 2 attackers ---\n");
  std::printf("%-16s | %9s | %12s | %10s\n", "protocol", "decisions", "ev lat (ms)",
              "epoch msgs");
  for (const char* pacemaker : {"lp22", "fever", "basic-lumiere", "lumiere"}) {
    ScenarioBuilder builder = table1_scenario(pacemaker, n, 3003);
    builder.delay(std::make_shared<lumiere::sim::FixedDelay>(Duration::micros(200)));
    builder.behaviors(lumiere::adversary::byzantine_set(
        {5, 6}, [](lumiere::ProcessId) {
          return std::make_unique<lumiere::adversary::SelectiveQcBehavior>(4);
        }));
    Cluster cluster(builder);
    cluster.run_for(Duration::seconds(90));
    std::printf("%-16s | %9zu | %12s | %10llu\n", pacemaker,
                cluster.metrics().decisions().size(),
                fmt_ms(cluster.metrics().max_decision_gap(lumiere::TimePoint::origin(),
                                                          30)).c_str(),
                static_cast<unsigned long long>(cluster.metrics().count_for_type(
                    lumiere::pacemaker::kEpochViewMsg)));
  }
  std::printf(
      "(expected: all four stay live — the attack cannot destroy liveness.\n"
      " LP22/Basic-Lumiere pay tens of thousands of heavy epoch-view messages\n"
      " because their quadratic boundary synchronization keeps running; full\n"
      " Lumiere pays only the bootstrap handful: withheld bumps cannot fake\n"
      " the success criterion, and honest QCs keep shrinking the gap per\n"
      " Lemma 5.12 — its stalls stay a small multiple of f_a * Gamma, never\n"
      " epoch-scale 10n * Gamma.)\n");
  return 0;
}
