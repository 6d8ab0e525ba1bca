// Ablations of Lumiere's design choices (Section 3.5):
//
//   1. Success criterion (full Lumiere) vs none (Basic Lumiere): heavy
//      epoch-synchronization traffic after GST, eventual communication.
//   2. QC-production deadline on/off: the deadline exists to *shrink* the
//      honest gap (Lemma 5.12); without it steady-state liveness is
//      unaffected in benign runs (it is a worst-case device).
//   3. Delta-wait before epoch-view messages on/off: without the wait,
//      in-flight tail QCs can trigger spurious heavy synchronizations.
//   4. Gamma multiplier sweep: larger Gamma = more slack, higher latency
//      under faults.
#include <cstdio>
#include <map>

#include "core/lumiere.h"
#include "pacemaker/fever.h"
#include "pacemaker/messages.h"

#include "bench_util.h"

namespace lumiere::bench {
namespace {

using runtime::WindowMeasure;

WindowMeasure run_case(const std::string& pacemaker, bool deadline, bool delta_wait,
                       Duration gamma_override, std::uint32_t f_a) {
  ScenarioBuilder builder = runtime::eventual_scenario(pacemaker, 7, f_a, 4001);
  builder.lumiere(runtime::LumiereOptions{deadline, delta_wait});
  builder.gamma(gamma_override);
  return runtime::measure_eventual(builder, Duration::seconds(90), /*warmup=*/30);
}

void print_row(const char* label, const WindowMeasure& result) {
  std::printf("%-34s | %10llu | %12s | %12s | %9zu\n", label,
              static_cast<unsigned long long>(result.epoch_view_msgs),
              fmt_count(result.comm).c_str(), fmt_ms(result.latency).c_str(),
              result.decisions);
}

}  // namespace
}  // namespace lumiere::bench

int main() {
  using namespace lumiere::bench;
  using lumiere::Duration;
  using lumiere::TimePoint;
  std::printf("bench_ablation: Lumiere design-choice ablations (n = 7, f_a = 2 silent "
              "leaders unless noted)\n\n");
  std::printf("%-34s | %10s | %12s | %12s | %9s\n", "variant", "epoch msgs", "ev comm",
              "ev lat (ms)", "decisions");
  std::printf("-----------------------------------+------------+--------------+--------------+-"
              "---------\n");

  print_row("lumiere (full)",
            run_case("lumiere", true, true, Duration::zero(), 2));
  print_row("basic-lumiere (no success crit.)",
            run_case("basic-lumiere", true, true, Duration::zero(), 2));
  print_row("lumiere, no QC deadline",
            run_case("lumiere", false, true, Duration::zero(), 2));
  print_row("lumiere, no Delta-wait",
            run_case("lumiere", true, false, Duration::zero(), 2));
  print_row("lumiere, Gamma x1.5",
            run_case("lumiere", true, true, Duration::millis(150), 2));
  print_row("lumiere, Gamma x2",
            run_case("lumiere", true, true, Duration::millis(200), 2));
  print_row("lumiere (full), f_a = 0",
            run_case("lumiere", true, true, Duration::zero(), 0));
  print_row("basic-lumiere, f_a = 0",
            run_case("basic-lumiere", true, true, Duration::zero(), 0));

  // --- Section 3.3 "Reducing Gamma": Fever leader-tenure sweep ---------
  std::printf("\n--- Fever leader-tenure sweep (Section 3.3 remark), f_a = 2 ---\n");
  std::printf("%-10s | %12s | %12s | %9s\n", "tenure", "Gamma (ms)", "ev lat (ms)",
              "decisions");
  for (const std::uint32_t tenure : {2U, 3U, 4U, 6U}) {
    ScenarioBuilder builder = table1_scenario("fever", 7, 4002);
    builder.delay(std::make_shared<lumiere::sim::FixedDelay>(Duration::micros(500)));
    builder.fever(lumiere::runtime::FeverOptions{tenure});
    add_silent_leaders(builder, 2);
    Cluster cluster(builder);
    cluster.run_for(Duration::seconds(90));
    const auto gamma = lumiere::pacemaker::FeverPacemaker::default_gamma(
        cluster.scenario().params, tenure);
    std::printf("%-10u | %12.0f | %12s | %9zu\n", tenure,
                static_cast<double>(gamma.ticks()) / 1000.0,
                fmt_ms(cluster.metrics().max_decision_gap(TimePoint::origin(), 30)).c_str(),
                cluster.metrics().decisions().size());
  }
  std::printf("(expected: Gamma falls toward (x+1) Delta as tenure grows; worst\n"
              " faulty-leader stalls track tenure * Gamma — the paper's trade-off)\n");

  // --- Bounded clock drift sweep (Section 2/4 remark) ------------------
  // The analysis assumes drift-free clocks after GST "for simplicity" and
  // claims easy extension to bounded drift. Sweep the per-processor rate
  // skew: liveness and the steady state must be insensitive until skew
  // becomes a meaningful fraction of the Gamma slack.
  std::printf("\n--- Clock-drift sweep (Section 2/4 remark), lumiere, n = 7, f_a = 2 ---\n");
  std::printf("%-12s | %10s | %12s | %9s\n", "drift (ppm)", "epoch msgs", "ev lat (ms)",
              "decisions");
  for (const std::int64_t ppm : {0LL, 200LL, 2'000LL, 20'000LL, 50'000LL}) {
    ScenarioBuilder builder = table1_scenario("lumiere", 7, 4004);
    builder.delay(std::make_shared<lumiere::sim::FixedDelay>(Duration::micros(500)));
    builder.drift_ppm_max(ppm);
    add_silent_leaders(builder, 2);
    Cluster cluster(builder);
    cluster.run_for(Duration::seconds(90));
    std::printf("%-12lld | %10llu | %12s | %9zu\n", static_cast<long long>(ppm),
                static_cast<unsigned long long>(
                    cluster.metrics().count_for_type(lumiere::pacemaker::kEpochViewMsg)),
                fmt_ms(cluster.metrics().max_decision_gap(TimePoint::origin(), 30)).c_str(),
                cluster.metrics().decisions().size());
  }
  std::printf("(expected: flat across realistic skews — QC/VC clock bumps re-anchor\n"
              " drifted clocks constantly, so only stall windows accumulate error)\n");

  // --- Underlying-protocol ablation: 2-phase vs 3-phase commit rule ----
  // Reference [14] (HotStuff-2): the two-phase rule commits each block on
  // the *next* consecutive QC instead of two QCs later. Same pacemaker,
  // same network, same seed — only the chain rule differs.
  std::printf("\n--- Underlying protocol: HotStuff-2 (2-chain) vs chained HotStuff "
              "(3-chain), Lumiere pacemaker, n = 7 ---\n");
  std::printf("%-18s | %9s | %14s | %18s\n", "core", "commits", "frontier (view)",
              "mean QC->commit ms");
  for (const char* core : {"hotstuff-2", "chained-hotstuff"}) {
    ScenarioBuilder builder = table1_scenario("lumiere", 7, 4003);
    builder.core(core);
    builder.params(lumiere::ProtocolParams::for_n(7, kTable1Delta, /*x=*/4));
    builder.delay(std::make_shared<lumiere::sim::FixedDelay>(Duration::micros(500)));
    Cluster cluster(builder);
    cluster.run_for(Duration::seconds(30));

    const auto& entries = cluster.node(0).ledger().entries();
    // Join each committed block with the decision that certified its view
    // to get the QC -> commit lag the chain rule imposes.
    std::map<lumiere::View, TimePoint> qc_at;
    for (const auto& decision : cluster.metrics().decisions()) {
      qc_at.emplace(decision.view, decision.at);
    }
    double total_lag_ms = 0;
    std::size_t joined = 0;
    for (const auto& entry : entries) {
      const auto it = qc_at.find(entry.view());
      if (it == qc_at.end()) continue;
      total_lag_ms += static_cast<double>((entry.committed_at - it->second).ticks()) / 1000.0;
      ++joined;
    }
    std::printf("%-18s | %9zu | %14lld | %18.2f\n", core,
                entries.size(), entries.empty() ? -1LL
                                                : static_cast<long long>(entries.back().view()),
                joined == 0 ? 0.0 : total_lag_ms / static_cast<double>(joined));
  }
  std::printf("(expected: HotStuff-2 completes views faster — its responsive path\n"
              " proposes on QC(v-1) alone instead of awaiting a NewView quorum — and\n"
              " its QC->commit lag is one pipeline round lower: the [14] saving,\n"
              " orthogonal to the pacemaker)\n");

  std::printf(
      "\nReading guide: the success criterion is the whole difference in the\n"
      "'epoch msgs' column — Basic Lumiere pays heavy synchronization every\n"
      "epoch forever, full Lumiere only at bootstrap. Gamma scaling trades\n"
      "fault-stall latency (ev lat) against slack.\n");
  return 0;
}
