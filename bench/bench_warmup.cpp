// Warmup to the steady state (Section 2, closing remark): "Lumiere
// achieves its eventual worst-case communication complexity and latency
// for T which is within expected O(n*Delta) time of GST."
//
// This bench measures, as a function of n:
//   * quiescence: time after GST of the *last* heavy epoch-view message
//     any honest processor sends (once quiescent, per-decision cost is
//     O(n*f_a + n) forever — Theorem 1.1 (4));
//   * first success: time after GST at which the first processor sees the
//     success criterion satisfied;
//   * first decision: the classic worst-case latency sample.
//
// The claim under test is the growth *order*: quiescence should scale
// (roughly) linearly in n — one epoch of 10n views plus the O(1) heavy
// exchanges around it — not quadratically.
#include <cstdio>

#include "core/lumiere.h"
#include "pacemaker/messages.h"

#include "bench_util.h"

namespace lumiere::bench {
namespace {

struct WarmupSample {
  double quiescence_ms = -1;   // last honest epoch-view send after GST
  double first_success_ms = -1;
  double first_decision_ms = -1;
};

WarmupSample measure(std::uint32_t n, std::uint64_t seed, bool worst_network) {
  const TimePoint gst(Duration::seconds(1).ticks());
  ScenarioBuilder builder = table1_scenario("lumiere", n, seed);
  builder.gst(gst);
  builder.join_stagger(Duration::millis(300));
  if (worst_network) {
    builder.delay(nullptr);  // worst permitted: max(GST, t) + Delta
  } else {
    builder.delay(std::make_shared<sim::PreGstChaosDelay>(
        gst, Duration::micros(500), Duration::millis(2), Duration::seconds(2)));
  }
  Cluster cluster(builder);
  cluster.start();

  WarmupSample sample;
  std::uint64_t last_heavy = 0;
  bool success_seen = false;
  const Duration slice = Duration::millis(20);
  // Sample from the origin: the bootstrap heavy exchange is sent pre-GST
  // and still counts — quiescence is reported relative to GST (negative
  // means the last heavy message predates it).
  const TimePoint deadline = gst + Duration::seconds(240);
  while (cluster.sim().now() < deadline) {
    cluster.run_for(slice);
    const std::uint64_t heavy = cluster.metrics().count_for_type(pacemaker::kEpochViewMsg);
    if (heavy != last_heavy) {
      last_heavy = heavy;
      sample.quiescence_ms =
          static_cast<double>((cluster.sim().now() - gst).ticks()) / 1000.0;
    }
    if (!success_seen) {
      for (const ProcessId id : cluster.honest_ids()) {
        const auto& pm =
            static_cast<const core::LumierePacemaker&>(cluster.node(id).pacemaker());
        const Epoch e = pm.current_epoch();
        if (e >= 0 && pm.success_tracker().success(e)) {
          success_seen = true;
          sample.first_success_ms =
              static_cast<double>((cluster.sim().now() - gst).ticks()) / 1000.0;
          break;
        }
      }
    }
  }
  if (const auto first = cluster.metrics().latency_to_first_decision(gst)) {
    sample.first_decision_ms = static_cast<double>(first->ticks()) / 1000.0;
  }
  return sample;
}

void run_table(bool worst_network, std::vector<std::pair<double, double>>& n_vs_warmup) {
  std::printf("%-6s | %16s | %18s | %18s\n", "n", "quiescence (ms)", "first success (ms)",
              "first decision (ms)");
  for (const std::uint32_t n : {4U, 7U, 10U, 13U}) {
    const WarmupSample s = measure(n, 7000 + n, worst_network);
    std::printf("%-6u | %16.1f | %18.1f | %18.1f\n", n, s.quiescence_ms, s.first_success_ms,
                s.first_decision_ms);
    // The growth fit uses first-success: quiescence is usually a single
    // bootstrap exchange *before* GST (negative offset), which is the
    // strongest possible outcome but carries no n-dependence to fit.
    if (s.first_success_ms > 0) {
      n_vs_warmup.emplace_back(n, s.first_success_ms);
    }
  }
}

}  // namespace
}  // namespace lumiere::bench

int main() {
  using namespace lumiere::bench;
  std::printf("bench_warmup: time from GST to the steady state (Theorem 1.1 (4) warmup),\n"
              "staggered joins, pre-GST chaos, GST at t = 1s, Delta = 10ms.\n");

  std::printf("\n--- favorable network after GST (delta ~ 0.5-2ms) ---\n");
  std::vector<std::pair<double, double>> fast;
  run_table(/*worst_network=*/false, fast);

  std::printf("\n--- worst permitted network (every message at the Delta bound) ---\n");
  std::vector<std::pair<double, double>> worst;
  run_table(/*worst_network=*/true, worst);

  if (worst.size() >= 3) {
    std::printf("\nfirst-success growth order vs n (worst network): n^%.2f\n",
                lumiere::obs::ComplexityLedger::fit_exponent(worst));
  }
  if (fast.size() >= 3) {
    std::printf("first-success growth order vs n (fast network):  n^%.2f\n",
                lumiere::obs::ComplexityLedger::fit_exponent(fast));
  }
  std::printf(
      "(expected: first success within a small constant of one epoch — 10n\n"
      " views — so growth ~n^1, matching the paper's 'within expected O(n\n"
      " Delta) of GST'. A quadratic fit would falsify the claim. Quiescence\n"
      " is typically a lone bootstrap exchange sent *before* GST (negative\n"
      " offset): heavy traffic never appears after it. First decisions land\n"
      " orders of magnitude before first success: the protocol is useful\n"
      " long before the steady-state machinery has even engaged.)\n");
  return 0;
}
