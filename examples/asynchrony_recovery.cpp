// Asynchrony recovery: the partial-synchrony story end to end — and the
// Section 7 deployment claim ("most practically useful in contexts where
// periods of asynchrony are expected to be occasional").
//
//   ./build/examples/asynchrony_recovery
//
// Seven processors with drifting clocks run three phases:
//
//   phase 1 (0-2s):   healthy network (~1ms). Lumiere bootstraps with ONE
//                     heavy epoch synchronization, flips the success
//                     criterion, and streams decisions responsively.
//   phase 2 (2-4s):   OUTAGE — the adversary delays everything by up to
//                     three seconds (the model permits this before GST).
//                     QCs stop, epoch boundaries arrive without success,
//                     processors park and heavy epoch-view traffic grows.
//   phase 3 (4s-...): GST. One heavy synchronization completes, the
//                     success criterion flips again, heavy traffic
//                     freezes FOREVER while decisions resume at network
//                     speed.
//
// The timeline shows the heavy-message counter: flat, then a burst around
// the outage, then flat again — Theorem 1.1 (4) in one column.
#include <cstdio>

#include "core/lumiere.h"
#include "pacemaker/messages.h"
#include "runtime/cluster.h"

using namespace lumiere;

namespace {

/// Healthy ~[lo, hi] delays except during an outage window, where the
/// adversary proposes delays up to `outage_max` (the network still clamps
/// at max(GST, t) + Delta, so this is only unbounded before GST).
class OutageDelay final : public sim::DelayPolicy {
 public:
  OutageDelay(TimePoint from, TimePoint to, Duration lo, Duration hi, Duration outage_max)
      : from_(from), to_(to), lo_(lo), hi_(hi), outage_max_(outage_max) {}

  Duration propose_delay(ProcessId, ProcessId, const Message&, TimePoint send_time,
                         Rng& rng) override {
    if (send_time >= from_ && send_time < to_) {
      return Duration(rng.next_in(0, outage_max_.ticks()));
    }
    return Duration(rng.next_in(lo_.ticks(), hi_.ticks()));
  }

 private:
  TimePoint from_;
  TimePoint to_;
  Duration lo_;
  Duration hi_;
  Duration outage_max_;
};

}  // namespace

int main() {
  const TimePoint outage_start(Duration::seconds(2).ticks());
  const TimePoint gst(Duration::seconds(4).ticks());  // outage ends at GST
  const ProtocolParams params = ProtocolParams::for_n(7, Duration::millis(10));
  runtime::ScenarioBuilder builder;
  builder.params(params)
      .pacemaker("lumiere")
      .gst(gst)
      .seed(42)
      .drift_ppm_max(2'000)  // clocks 0.2% off, each its own way
      .delay(std::make_shared<OutageDelay>(outage_start, gst, Duration::micros(800),
                                           Duration::millis(1), Duration::seconds(3)));

  runtime::Cluster cluster(builder);
  cluster.start();

  const Duration gamma = core::LumierePacemaker::default_gamma(params);
  std::printf("asynchrony_recovery: n = 7, Delta = 10ms, Gamma = %.0fms,\n"
              "outage (delays up to 3s) in [2s, 4s), GST at 4.0s, drift <= 2000ppm\n\n",
              static_cast<double>(gamma.ticks()) / 1000.0);
  std::printf("%8s | %10s | %10s | %12s | %10s | %9s\n", "t (s)", "min view", "max view",
              "heavy msgs", "decisions", "gap (ms)");

  const auto tracker = cluster.honest_gap_tracker();
  std::uint64_t last_heavy = 0;
  double last_heavy_at = 0.0;
  for (int tick = 1; tick <= 20; ++tick) {
    cluster.run_for(Duration::millis(500));
    const double t = 0.5 * tick;
    const std::uint64_t heavy = cluster.metrics().count_for_type(pacemaker::kEpochViewMsg);
    if (heavy != last_heavy) {
      last_heavy = heavy;
      last_heavy_at = t;
    }
    const char* marker = t == 2.0 ? "   <== outage begins"
                         : t == 4.0 ? "   <== GST (outage over)"
                                    : "";
    std::printf("%8.1f | %10lld | %10lld | %12llu | %10zu | %9.1f%s\n", t,
                static_cast<long long>(cluster.min_honest_view()),
                static_cast<long long>(cluster.max_honest_view()),
                static_cast<unsigned long long>(heavy), cluster.metrics().decisions().size(),
                static_cast<double>(tracker.gap(params.f + 1).ticks()) / 1000.0,
                marker);
  }

  const auto first = cluster.metrics().latency_to_first_decision(gst);
  if (first) {
    std::printf("\nfirst decision after GST: %.1f ms\n",
                static_cast<double>(first->ticks()) / 1000.0);
  }
  std::printf("heavy traffic last moved at t = %.1fs (GST + %.1fs); it will never move "
              "again.\n", last_heavy_at, last_heavy_at - 4.0);
  const auto ev_gap = cluster.metrics().max_decision_gap(gst, 30);
  if (ev_gap) {
    std::printf("worst steady-state decision gap after recovery: %.1f ms\n",
                static_cast<double>(ev_gap->ticks()) / 1000.0);
  }
  std::printf("\nWhat to look for: the heavy-message column is flat through phase 1\n"
              "(one bootstrap exchange), bursts once around the outage, then freezes\n"
              "while decisions keep climbing — occasional asynchrony costs one heavy\n"
              "synchronization, not a recurring n^2 tax (Theorem 1.1 (4), Section 7).\n");
  return 0;
}
