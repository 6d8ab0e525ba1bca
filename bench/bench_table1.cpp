// Reproduces the paper's measured claims: Table 1 ("Summary of the
// results for state-of-the-art optimistically responsive protocols"),
// Figure 1, Theorem 1.1 (3) and (4) and the design choices of Sections
// 3.3 and 3.5, in seven sections that measure through runtime/experiment.h:
//
//   * table  — the four measures of Section 2 per protocol at one n:
//     worst-case communication and latency (the costliest warmup window
//     under the worst permitted network and f silent leaders), and
//     eventual worst-case communication and latency (the costliest
//     steady-state window at delta = 0.5 ms, with f_a = f and f_a = 0).
//   * growth — the same measures swept over n, with fitted log-log
//     exponents: the empirical counterpart of Table 1's asymptotic
//     columns (Theorem 1.1). Eventual comm at f_a = f grows with f, so
//     the separating measure is eventual comm at fixed f_a = 1.
//   * sync   — per-view-sync cost per node against n, from the honest
//     nodes' SyncSpans (obs/), which count view-sync (pacemaker-class)
//     messages only. The cluster pays n times a span's cost.
//   * fig1, responsiveness, warmup, ablation — Figure 1's stall, Theorem
//     1.1 (3) and (4), and Lumiere's design choices; README "Table 1".
//
// Expected shape (paper):            worst comm  ev. comm    worst lat  ev. lat
//   Cogsworth/NK20                   O(n^3)      O(n+n fa^2) O(n^2 D)   O(fa^2 D + d)
//   LP22                             O(n^2)      O(n^2)      O(n D)     O(n D)
//   Fever (bounded-clocks model)     O(n^2)      O(n fa + n) O(n D)*    O(fa D + d)
//   Lumiere                          O(n^2)      O(n fa + n) O(n D)     O(fa D + d)
// (*Fever's worst-case latency is O(fa D + d) in its own model; under a
//  desynchronized start it has no guarantee at all — which is the point.)
//
// Each section prints a reading guide, which tests/integration checks on
// the --quick points (*claims_test.cpp, figure1_test.cpp). --quick
// shortens the runs; fig1 runs the same in both modes.
//
//   ./build/bench_table1 [--quick] [--json BENCH_table1.json]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>

#include "pacemaker/fever.h"

#include "bench_util.h"

namespace lumiere::bench {
namespace {

using runtime::WindowMeasure;

// ------------------------------------------------------------------ table

void run_table(std::uint32_t n, JsonRows& json) {
  const std::uint32_t f = (n - 1) / 3;
  std::printf("\n=== Table 1 (measured), n = %u, f = f_a = %u, Delta = 10ms, delta = 0.5ms ===\n",
              n, f);
  std::printf("%-14s | %11s | %13s | %13s | %10s | %13s | %13s\n", "protocol", "worst comm",
              "ev comm fa=f", "ev comm fa=0", "worst lat", "ev lat fa=f", "ev lat fa=0");
  std::printf("%-14s | %11s | %13s | %13s | %10s | %13s | %13s\n", "", "(msgs)", "(msgs/dec)",
              "(msgs/dec)", "(ms)", "(ms)", "(ms)");
  std::printf("---------------+-------------+---------------+---------------+------------+--"
              "-------------+--------------\n");
  for (const std::string& pacemaker : table1_protocols()) {
    const WindowMeasure worst = runtime::measure_worst_case(
        runtime::worst_case_scenario(pacemaker, n, 1001), Duration::seconds(240));
    const auto eventual = [&](std::uint32_t f_a) {
      return runtime::measure_eventual(runtime::eventual_scenario(pacemaker, n, f_a, 1002),
                                       Duration::seconds(90), /*warmup=*/30);
    };
    const WindowMeasure faults = eventual(f);
    const WindowMeasure clean = eventual(0);
    std::printf("%-14s | %11s | %13s | %13s | %10s | %13s | %13s\n", pacemaker.c_str(),
                fmt_count(worst.comm).c_str(), fmt_count(faults.comm).c_str(),
                fmt_count(clean.comm).c_str(), fmt_ms(worst.latency).c_str(),
                fmt_ms(faults.latency).c_str(), fmt_ms(clean.latency).c_str());
    json.add_row()
        .set("section", "table")
        .set("protocol", pacemaker)
        .set("n", static_cast<std::uint64_t>(n))
        .set("f", static_cast<std::uint64_t>(f))
        .set_count("worst_comm_msgs", worst.comm)
        .set_count("ev_comm_fa_f_msgs", faults.comm)
        .set_count("ev_comm_fa_0_msgs", clean.comm)
        .set_ms("worst_lat_ms", worst.latency)
        .set_ms("ev_lat_fa_f_ms", faults.latency)
        .set_ms("ev_lat_fa_0_ms", clean.latency);
  }
}

// ----------------------------------------------------------------- growth

struct GrowthBudget {
  std::vector<std::uint32_t> sizes;
  Duration worst_run;     ///< worst-permitted-network run per point
  Duration eventual_run;  ///< fixed-delay run per eventual measure
  std::size_t warmup_windows;
};

GrowthBudget growth_budget(bool quick) {
  // --quick: fewer, larger sizes and shorter runs — the growth fit needs
  // the spread in n, not long tails per point.
  if (quick) return {{4, 13, 31, 64}, Duration::seconds(60), Duration::seconds(20), 10};
  return {{4, 7, 13, 19, 31, 64}, Duration::seconds(240), Duration::seconds(60), 25};
}

double value_or_zero(std::optional<std::uint64_t> count) {
  return count ? static_cast<double>(*count) : 0.0;
}

void run_growth_protocol(const std::string& pacemaker, const GrowthBudget& budget,
                         JsonRows& json) {
  std::printf("\n--- %s ---\n", pacemaker.c_str());
  std::printf("%-5s | %12s | %16s | %15s | %15s\n", "n", "worst comm", "ev comm (fa=f)",
              "ev comm (fa=1)", "ev lat (fa=1) ms");
  // (n, value) per column: worst comm, ev comm fa=f, ev comm fa=1, ev lat fa=1.
  std::vector<std::pair<double, double>> series[4];
  for (const std::uint32_t n : budget.sizes) {
    const double worst_comm = value_or_zero(
        runtime::measure_worst_case(runtime::worst_case_scenario(pacemaker, n, 2001),
                                    budget.worst_run)
            .comm);
    const auto eventual = [&](std::uint32_t f_a) {
      return runtime::measure_eventual(runtime::eventual_scenario(pacemaker, n, f_a, 2002),
                                       budget.eventual_run, budget.warmup_windows);
    };
    const double ev_comm_full = value_or_zero(eventual((n - 1) / 3).comm);
    const WindowMeasure one = eventual(1);
    const bool decided = one.comm && one.latency;
    const double ev_comm_one = decided ? static_cast<double>(*one.comm) : 0.0;
    const double ev_lat_one_ms = decided ? to_ms(*one.latency) : 0.0;
    std::printf("%-5u | %12.0f | %16.0f | %15.0f | %15.1f\n", n, worst_comm, ev_comm_full,
                ev_comm_one, ev_lat_one_ms);
    json.add_row()
        .set("section", "growth")
        .set("protocol", pacemaker)
        .set("n", static_cast<std::uint64_t>(n))
        .set("worst_comm", worst_comm)
        .set("ev_comm_fa_f", ev_comm_full)
        .set("ev_comm_fa_1", ev_comm_one)
        .set("ev_lat_fa_1_ms", ev_lat_one_ms);
    const double values[4] = {worst_comm, ev_comm_full, ev_comm_one, ev_lat_one_ms};
    for (int i = 0; i < 4; ++i) series[i].emplace_back(n, values[i]);
  }
  double fits[4];
  for (int i = 0; i < 4; ++i) fits[i] = obs::ComplexityLedger::fit_exponent(series[i]);
  std::printf("fitted n-exponents: worst comm %.2f | ev comm fa=f %.2f | ev comm fa=1 %.2f | "
              "ev lat fa=1 %.2f\n",
              fits[0], fits[1], fits[2], fits[3]);
  json.add_row()
      .set("section", "growth")
      .set("protocol", pacemaker)
      .set("fit_worst_comm", fits[0])
      .set("fit_ev_comm_fa_f", fits[1])
      .set("fit_ev_comm_fa_1", fits[2])
      .set("fit_ev_lat_fa_1", fits[3]);
}

/// The bounded n = 100 point: Lumiere under one silent leader, eventual
/// regime only. It shows the simulator drives n ~ 100 O(n^2)-vote traffic
/// inside a CI budget.
void run_hundred_point(JsonRows& json) {
  constexpr std::uint32_t kN = 100;
  const WindowMeasure point = runtime::measure_eventual(
      runtime::eventual_scenario("lumiere", kN, 1, 2003), Duration::seconds(15), 10);
  std::printf("\n--- bounded n=100 point (lumiere, fa=1, 15 sim-s) ---\n");
  std::printf("decisions %zu | ev comm %s | ev lat %s ms\n", point.decisions,
              fmt_count(point.comm).c_str(), fmt_ms(point.latency).c_str());
  json.add_row()
      .set("section", "growth")
      .set("protocol", "lumiere")
      .set("n", static_cast<std::uint64_t>(kN))
      .set("bounded", "fa=1 eventual only")
      .set_count("decisions", point.decisions)
      .set_count("ev_comm_fa_1", point.comm)
      .set_ms("ev_lat_fa_1_ms", point.latency);
}

void run_growth(bool quick, JsonRows& json) {
  std::printf("\n=== growth orders vs n (Theorem 1.1 shapes)%s ===\n",
              quick ? " [--quick]" : "");
  const GrowthBudget budget = growth_budget(quick);
  for (const char* pacemaker : {"cogsworth", "lp22", "basic-lumiere", "lumiere"}) {
    run_growth_protocol(pacemaker, budget, json);
  }
  if (quick) run_hundred_point(json);
}

// ------------------------------------------------------------------- sync

void run_sync(bool quick, JsonRows& json) {
  const std::vector<std::uint32_t> sizes =
      quick ? std::vector<std::uint32_t>{4, 13, 31, 64, 100}
            : std::vector<std::uint32_t>{4, 13, 31, 64, 100, 151, 256};
  for (const std::string& pacemaker : table1_protocols()) {
    std::printf("\n=== per-sync cost per node vs n: %s (f silent leaders, worst permitted "
                "network) ===\n",
                pacemaker.c_str());
    std::printf("%5s | %4s | %6s | %10s | %9s | %9s | %10s | %10s | %11s\n", "n", "f", "spans",
                "msgs/node", "~O(n)", "~O(n^2)", "bytes/node", "auth/node", "dur p50 ms");
    std::printf("------+------+--------+------------+-----------+-----------+------------+--"
                "----------+------------\n");
    std::vector<std::pair<double, double>> n_vs_msgs;
    std::vector<std::pair<double, double>> n_vs_auth;
    double base_msgs = 0.0;
    double base_n = 0.0;
    for (const std::uint32_t n : sizes) {
      const obs::LedgerSummary s = runtime::measure_sync_cost(
          runtime::worst_case_scenario(pacemaker, n, 1700 + n),
          static_cast<std::size_t>(quick ? 4 : 8) * n,
          quick ? Duration::seconds(20) : Duration::seconds(60));
      if (base_n == 0.0 && s.msgs.mean > 0.0) {
        base_n = n;
        base_msgs = s.msgs.mean;
      }
      // Theory curves anchored at the smallest measured size: what the
      // mean would be if cost grew exactly linearly / quadratically.
      const double theory_n = base_n > 0 ? base_msgs * n / base_n : 0.0;
      const double theory_n2 = base_n > 0 ? base_msgs * n * n / (base_n * base_n) : 0.0;
      const std::uint32_t f = (n - 1) / 3;
      std::printf("%5u | %4u | %6llu | %10.1f | %9.1f | %9.1f | %10.1f | %10.1f | %11.2f\n", n,
                  f, static_cast<unsigned long long>(s.spans), s.msgs.mean, theory_n,
                  theory_n2, s.bytes.mean, s.auth_ops.mean, s.duration_us.p50 / 1000.0);
      if (s.spans > 0) {
        n_vs_msgs.emplace_back(n, s.msgs.mean);
        n_vs_auth.emplace_back(n, s.auth_ops.mean);
      }
      json.add_row()
          .set("section", "sync")
          .set("kind", "sample")
          .set("protocol", pacemaker)
          .set("n", static_cast<std::uint64_t>(n))
          .set("f", static_cast<std::uint64_t>(f))
          .set("spans", s.spans)
          .set("msgs_mean", s.msgs.mean)
          .set("msgs_p95", s.msgs.p95)
          .set("bytes_mean", s.bytes.mean)
          .set("auth_mean", s.auth_ops.mean)
          .set("auth_p95", s.auth_ops.p95)
          .set("dur_p50_ms", s.duration_us.p50 / 1000.0)
          .set("theory_n", theory_n)
          .set("theory_n2", theory_n2);
    }
    const double msgs_exp = obs::ComplexityLedger::fit_exponent(n_vs_msgs);
    const double auth_exp = obs::ComplexityLedger::fit_exponent(n_vs_auth);
    std::printf("fitted growth exponent per node: msgs/sync ~ n^%.2f, auth-ops/sync ~ n^%.2f "
                "(1.0 = linear, 2.0 = quadratic)\n",
                msgs_exp, auth_exp);
    json.add_row()
        .set("section", "sync")
        .set("kind", "fit")
        .set("protocol", pacemaker)
        .set("msgs_exponent", msgs_exp)
        .set("auth_exponent", auth_exp);
  }
}

/// A row of the fig1, responsiveness, warmup or ablation section.
JsonRows::Row& claim_row(JsonRows& json, const char* section, const char* kind) {
  return json.add_row().set("section", section).set("kind", kind);
}

// ------------------------------------------------------------------- fig1

/// Figure 1's n = 16 timeline (f + 1 = 6-view LP22 epochs): the decisions
/// around the worst stall after the first 10, and the ten worst stalls.
void run_figure1_timeline(const std::string& pacemaker, JsonRows& json) {
  Cluster cluster(runtime::figure1_scenario(pacemaker, 16, 7001));
  cluster.run_for(Duration::seconds(45));
  const auto& decisions = cluster.metrics().decisions();
  const double gamma_ms = to_ms(runtime::default_gamma(pacemaker, cluster.scenario().params));
  std::printf("\n--- %s (Gamma = %.0f ms, %zu decisions) ---\n", pacemaker.c_str(), gamma_ms,
              decisions.size());
  if (decisions.size() < 8) {
    std::printf("  (too few decisions)\n");
    return;
  }
  const auto gap_ms = [&](std::size_t i) { return to_ms(decisions[i].at - decisions[i - 1].at); };
  std::vector<double> gaps;
  std::size_t worst = 1;
  double worst_ms = 0;
  for (std::size_t i = 11; i < decisions.size(); ++i) {
    gaps.push_back(gap_ms(i));
    if (gaps.back() > worst_ms) {
      worst_ms = gaps.back();
      worst = i;
    }
  }
  std::printf("  worst stall: %.1f ms (= %.2f Gamma) before view %lld\n", worst_ms,
              worst_ms / gamma_ms, static_cast<long long>(decisions[worst].view));
  std::printf("  %-10s %-12s %-10s\n", "view", "decided(ms)", "gap(ms)");
  for (std::size_t i = worst >= 4 ? worst - 4 : 0; i <= std::min(worst + 3, decisions.size() - 1);
       ++i) {
    std::printf("  %-10lld %-12.2f %-10.2f%s\n", static_cast<long long>(decisions[i].view),
                to_ms(decisions[i].at - TimePoint::origin()), i > 0 ? gap_ms(i) : 0.0,
                i == worst ? "   <== stall" : "");
  }
  std::sort(gaps.rbegin(), gaps.rend());
  std::printf("  top stalls (ms):");
  for (std::size_t i = 0; i < std::min<std::size_t>(10, gaps.size()); ++i) {
    std::printf(" %.1f", gaps[i]);
  }
  std::printf("\n");
  claim_row(json, "fig1", "timeline")
      .set("protocol", pacemaker)
      .set("n", std::uint64_t{16})
      .set("gamma_ms", gamma_ms)
      .set_count("decisions", decisions.size())
      .set("worst_stall_ms", worst_ms)
      .set("stall_view", static_cast<double>(decisions[worst].view));
}

void run_figure1(JsonRows& json) {
  std::printf("\n=== Figure 1: one silent Byzantine leader (process 3), fast network\n"
              "(delta = 0.2ms << Delta = 10ms), n = 16 (f = 5; LP22 epochs have f+1 = 6 "
              "views) ===\n");
  for (const char* pacemaker : {"lp22", "basic-lumiere", "lumiere"}) {
    run_figure1_timeline(pacemaker, json);
  }
  // Figure1Test's points, either side of the LP22/Lumiere crossover.
  std::printf("\n--- worst stall after 10 decisions, 60 sim-s (Figure1Test's points) ---\n");
  std::printf("%-8s | %4s | %4s | %16s\n", "protocol", "n", "seed", "worst stall (ms)");
  for (const char* pacemaker : {"lp22", "lumiere"}) {
    for (const std::uint32_t n : {4U, 31U}) {
      for (const std::uint64_t seed : {71ULL, 72ULL}) {
        const std::optional<Duration> stall =
            runtime::measure_eventual(runtime::figure1_scenario(pacemaker, n, seed),
                                      Duration::seconds(60), /*warmup=*/10)
                .latency;
        std::printf("%-8s | %4u | %4llu | %16s\n", pacemaker, n,
                    static_cast<unsigned long long>(seed), fmt_ms(stall).c_str());
        claim_row(json, "fig1", "point")
            .set("protocol", pacemaker)
            .set("n", std::uint64_t{n})
            .set("seed", seed)
            .set_ms("worst_stall_ms", stall);
      }
    }
  }
}

// --------------------------------------------------------- responsiveness

/// One row per protocol, one eventual latency per column.
void latency_grid(const char* title, const char* kind, const char* column,
                  const std::vector<double>& columns, int column_digits, int cell_digits,
                  const std::function<std::optional<Duration>(const char*, double)>& measure,
                  JsonRows& json) {
  std::printf("\n--- %s ---\n%-16s", title, column);
  for (const double c : columns) std::printf(" | %8.*f", column_digits, c);
  std::printf("\n");
  for (const char* pacemaker : {"lp22", "fever", "basic-lumiere", "lumiere"}) {
    std::printf("%-16s", pacemaker);
    for (const double c : columns) {
      const std::optional<Duration> latency = measure(pacemaker, c);
      std::printf(" | %8.*f", cell_digits, latency ? to_ms(*latency) : -1.0);
      claim_row(json, "responsiveness", kind)
          .set("protocol", pacemaker)
          .set(column, c)
          .set_ms("ev_lat_ms", latency);
    }
    std::printf("\n");
  }
}

void run_responsiveness(bool quick, JsonRows& json) {
  constexpr std::uint32_t kN = 7;
  const Duration delta_run = quick ? Duration::seconds(10) : Duration::seconds(60);
  const Duration fault_run = quick ? Duration::seconds(20) : Duration::seconds(90);
  const std::size_t warmup = quick ? 10 : 30;
  std::printf("\n=== smooth optimistic responsiveness (Theorem 1.1 (3)), n = %u, Delta = 10ms "
              "===\n",
              kN);
  latency_grid("delta sweep at f_a = 0: eventual worst-case latency (ms)", "delta", "delta_ms",
               {0.1, 0.3, 1, 3, 10}, 1, 2,
               [&](const char* pacemaker, double delta_ms) {
                 const Duration delta = Duration::micros(std::llround(delta_ms * 1000));
                 return runtime::measure_eventual(
                            runtime::eventual_scenario(pacemaker, kN, 0, 3001, delta), delta_run,
                            warmup)
                     .latency;
               },
               json);
  latency_grid("f_a sweep at delta = 0.5ms: eventual worst-case latency (ms)", "fa", "f_a",
               {0, 1, 2}, 0, 1,
               [&](const char* pacemaker, double f_a) {
                 return runtime::measure_eventual(
                            runtime::eventual_scenario(pacemaker, kN,
                                                       static_cast<std::uint32_t>(f_a), 3002),
                            fault_run, warmup)
                     .latency;
               },
               json);

  // f Byzantine leaders do all their duties but show QCs/VCs to half the
  // cluster only, starving the rest of clock bumps while epochs still
  // "produce QCs".
  std::printf("\n--- Section 3.5 selective-QC attack, n = %u, f = 2 attackers ---\n", kN);
  std::printf("%-16s | %9s | %12s | %10s\n", "protocol", "decisions", "ev lat (ms)",
              "epoch msgs");
  for (const char* pacemaker : {"lp22", "fever", "basic-lumiere", "lumiere"}) {
    const WindowMeasure attack = runtime::measure_eventual(
        runtime::selective_qc_scenario(pacemaker, kN, 3003), fault_run, warmup);
    std::printf("%-16s | %9zu | %12s | %10llu\n", pacemaker, attack.decisions,
                fmt_ms(attack.latency).c_str(),
                static_cast<unsigned long long>(attack.epoch_view_msgs));
    claim_row(json, "responsiveness", "selective_qc")
        .set("protocol", pacemaker)
        .set_count("decisions", attack.decisions)
        .set_ms("ev_lat_ms", attack.latency)
        .set("epoch_msgs", attack.epoch_view_msgs);
  }
}

// ----------------------------------------------------------------- warmup

void run_warmup(bool quick, JsonRows& json) {
  // --quick: 20 s past GST still covers a whole epoch (10n views) at n = 13.
  const Duration after_gst = quick ? Duration::seconds(20) : Duration::seconds(240);
  std::printf("\n=== time from GST to the steady state (Theorem 1.1 (4) warmup): lumiere,\n"
              "staggered joins, pre-GST chaos, GST at t = 1s, Delta = 10ms ===\n");
  double exponents[2] = {0, 0};
  for (const bool worst_network : {false, true}) {
    const char* network = worst_network ? "worst" : "fast";
    std::printf(worst_network
                    ? "\n--- worst permitted network (every message at the Delta bound) ---\n"
                    : "\n--- favorable network after GST (delta ~ 0.5-2ms) ---\n");
    std::printf("%-6s | %16s | %18s | %18s\n", "n", "quiescence (ms)", "first success (ms)",
                "first decision (ms)");
    // Quiescence usually predates GST and carries no n-dependence; the
    // growth fit uses first success.
    std::vector<std::pair<double, double>> n_vs_success;
    for (const std::uint32_t n : {4U, 7U, 10U, 13U}) {
      const runtime::WarmupMeasure m = runtime::measure_warmup(
          runtime::warmup_scenario(n, 7000 + n, worst_network), after_gst);
      std::printf("%-6u | %16s | %18s | %18s\n", n, fmt_ms(m.quiescence).c_str(),
                  fmt_ms(m.first_success).c_str(), fmt_ms(m.first_decision).c_str());
      if (m.first_success && *m.first_success > Duration::zero()) {
        n_vs_success.emplace_back(n, to_ms(*m.first_success));
      }
      claim_row(json, "warmup", network)
          .set("n", std::uint64_t{n})
          .set_ms("quiescence_ms", m.quiescence)
          .set_ms("first_success_ms", m.first_success)
          .set_ms("first_decision_ms", m.first_decision);
    }
    exponents[worst_network] = obs::ComplexityLedger::fit_exponent(n_vs_success);
    claim_row(json, "warmup", network).set("fit_first_success", exponents[worst_network]);
  }
  std::printf("\nfirst-success growth order vs n (worst network): n^%.2f\n"
              "first-success growth order vs n (fast network):  n^%.2f\n",
              exponents[1], exponents[0]);
}

// --------------------------------------------------------------- ablation

void print_ablation_row(const char* label, const WindowMeasure& m, JsonRows& json) {
  std::printf("%-34s | %10llu | %12s | %12s | %9zu\n", label,
              static_cast<unsigned long long>(m.epoch_view_msgs), fmt_count(m.comm).c_str(),
              fmt_ms(m.latency).c_str(), m.decisions);
  claim_row(json, "ablation", "eventual")
      .set("variant", label)
      .set("epoch_msgs", m.epoch_view_msgs)
      .set_count("comm", m.comm)
      .set_ms("lat_ms", m.latency)
      .set_count("decisions", m.decisions);
}

void run_ablation(bool quick, JsonRows& json) {
  constexpr std::uint32_t kN = 7;
  const Duration run = quick ? Duration::seconds(20) : Duration::seconds(90);
  const std::size_t warmup = quick ? 10 : 30;
  std::printf("\n=== Lumiere design-choice ablations (Section 3.5), n = %u, f_a = 2 silent "
              "leaders unless noted ===\n\n",
              kN);
  std::printf("%-34s | %10s | %12s | %12s | %9s\n", "variant (eventual regime)", "epoch msgs",
              "ev comm", "ev lat (ms)", "decisions");
  std::printf("-----------------------------------+------------+--------------+--------------+-"
              "---------\n");
  // The drift rows test the analysis's drift-free clocks after GST
  // (Sections 2 and 4), which it claims extend easily to bounded drift.
  struct Variant {
    const char* label;
    const char* pacemaker;
    Duration gamma;
    std::uint32_t f_a;
    std::uint64_t seed;
    std::int64_t drift_ppm;
  };
  const Duration none = Duration::zero();
  const Variant variants[] = {
      {"lumiere (full)", "lumiere", none, 2, 4001, 0},
      {"basic-lumiere (no success crit.)", "basic-lumiere", none, 2, 4001, 0},
      {"lumiere, Gamma x1.5", "lumiere", Duration::millis(150), 2, 4001, 0},
      {"lumiere, Gamma x2", "lumiere", Duration::millis(200), 2, 4001, 0},
      {"lumiere (full), f_a = 0", "lumiere", none, 0, 4001, 0},
      {"basic-lumiere, f_a = 0", "basic-lumiere", none, 0, 4001, 0},
      {"lumiere, drift 0 ppm", "lumiere", none, 2, 4004, 0},
      {"lumiere, drift 200 ppm", "lumiere", none, 2, 4004, 200},
      {"lumiere, drift 2000 ppm", "lumiere", none, 2, 4004, 2'000},
      {"lumiere, drift 20000 ppm", "lumiere", none, 2, 4004, 20'000},
      {"lumiere, drift 50000 ppm", "lumiere", none, 2, 4004, 50'000},
  };
  for (const Variant& v : variants) {
    ScenarioBuilder builder = runtime::eventual_scenario(v.pacemaker, kN, v.f_a, v.seed);
    builder.gamma(v.gamma).drift_ppm_max(v.drift_ppm);
    print_ablation_row(v.label, runtime::measure_eventual(builder, run, warmup), json);
  }

  // Section 3.3 "Reducing Gamma": Fever's leader tenure.
  std::printf("\n--- Fever leader-tenure sweep (Section 3.3 remark), f_a = 2 ---\n");
  std::printf("%-10s | %12s | %12s | %9s\n", "tenure", "Gamma (ms)", "ev lat (ms)",
              "decisions");
  for (const std::uint32_t tenure : {2U, 3U, 4U, 6U}) {
    ScenarioBuilder builder = runtime::eventual_scenario("fever", kN, 2, 4002);
    builder.fever(runtime::FeverOptions{tenure});
    const WindowMeasure m = runtime::measure_eventual(builder, run, warmup);
    const double gamma_ms = to_ms(pacemaker::FeverPacemaker::default_gamma(
        ProtocolParams::for_n(kN, kTable1Delta), tenure));
    std::printf("%-10u | %12.0f | %12s | %9zu\n", tenure, gamma_ms, fmt_ms(m.latency).c_str(),
                m.decisions);
    claim_row(json, "ablation", "tenure")
        .set("tenure", std::uint64_t{tenure})
        .set("gamma_ms", gamma_ms)
        .set_ms("ev_lat_ms", m.latency)
        .set_count("decisions", m.decisions);
  }

  // Reference [14] (HotStuff-2): the two-phase rule commits each block on
  // the next consecutive QC instead of two QCs later. Same pacemaker,
  // network and seed; only the chain rule differs.
  std::printf("\n--- Underlying protocol: HotStuff-2 (2-chain) vs chained HotStuff "
              "(3-chain), Lumiere pacemaker, n = %u ---\n",
              kN);
  std::printf("%-18s | %9s | %14s | %18s\n", "core", "commits", "frontier (view)",
              "mean QC->commit ms");
  for (const char* core : {"hotstuff-2", "chained-hotstuff"}) {
    ScenarioBuilder builder = runtime::eventual_scenario("lumiere", kN, 0, 4003);
    builder.core(core).params(ProtocolParams::for_n(kN, kTable1Delta, /*x=*/4));
    const runtime::CommitLag lag = runtime::measure_commit_lag(
        builder, quick ? Duration::seconds(10) : Duration::seconds(30));
    std::printf("%-18s | %9zu | %14lld | %18.2f\n", core, lag.commits,
                static_cast<long long>(lag.frontier), lag.mean_ms);
    claim_row(json, "ablation", "core")
        .set("core", core)
        .set_count("commits", lag.commits)
        .set("frontier", static_cast<double>(lag.frontier))
        .set("mean_qc_to_commit_ms", lag.mean_ms);
  }
}

}  // namespace
}  // namespace lumiere::bench

int main(int argc, char** argv) {
  using namespace lumiere::bench;
  const BenchArgs args = parse_bench_args(argc, argv);
  std::printf("bench_table1: reproduction of Table 1%s\n", args.quick ? " [--quick]" : "");
  JsonRows json;
  // --quick (CI): the n = 7 table alone; the growth section carries the
  // n-dependence.
  run_table(7, json);
  if (!args.quick) run_table(13, json);
  std::printf(
      "\nReading guide: Cogsworth/NK20's worst-case columns blow up fastest;\n"
      "LP22's eventual comm stays quadratic-ish (epoch syncs) and its eventual\n"
      "latency contains Omega(n Delta) stalls; Fever and Lumiere keep eventual\n"
      "cost linear in f_a — but Fever needed a synchronized start to get there.\n");

  run_growth(args.quick, json);
  std::printf(
      "\nReading guide: Cogsworth's worst-comm exponent should exceed LP22's and\n"
      "Lumiere's (n^3 vs n^2). Lumiere's eventual communication is O(n*fa + n),\n"
      "so its fa=1 comm exponent is ~1 (LP22's and Basic Lumiere's, which sync\n"
      "every epoch, ~2). At fa=1 Lumiere's eventual latency is bounded by 4 Gamma\n"
      "at every n, not by an exponent: the silent leader's longest run is two\n"
      "adjacent view pairs, which it holds where it ends one schedule segment and\n"
      "starts the next (chance 1/n at an epoch bridge, 1/n^2 at other segment\n"
      "boundaries). Fewer epochs fit the run as n grows; at n = 31 and 64 this\n"
      "run holds no such pair, and the worst gap is one pair, 2 Gamma.\n");

  run_sync(args.quick, json);
  std::printf(
      "\nReading guide: spans are per node, so a cluster-wide episode costs n\n"
      "times the columns, and the exponents are per node too. A span counts\n"
      "view-sync (pacemaker) messages only; consensus traffic sent during the\n"
      "episode is not sync cost. RareSync/LP22's\n"
      "all-to-all epoch sync grows ~n^1 per node (~n^2 cluster-wide); Lumiere's\n"
      "episode grows far slower under f silent leaders, reserving the quadratic\n"
      "for worst-case epochs (the Lewis-Pye bound). Lumiere's and Fever's leaders\n"
      "send a VC only to processes not yet in its view, so a synchronized light\n"
      "sync costs ~n-1 messages cluster-wide (the view messages), not ~2(n-1).\n");

  run_figure1(json);
  std::printf(
      "\nReading guide: LP22 never bumps clocks on QCs, so every epoch ends in a wait\n"
      "for the clock: the stall is the epoch, (f+1) Gamma_LP22 (240 ms at n = 16),\n"
      "plus one Gamma when the silent leader holds the epoch's first view (474 ms\n"
      "at n = 31). Clock bumps cap the stall at one tenure (2 Gamma = 160 ms) for\n"
      "Basic Lumiere and two adjacent view pairs (4 Gamma = 400 ms) for Lumiere, at\n"
      "every n. So LP22 stalls longer only once (f+1) * 40 > 400 ms: from n = 31.\n");

  run_responsiveness(args.quick, json);
  std::printf(
      "\nReading guide: at f_a = 0 Fever, Basic Lumiere and Lumiere decide within\n"
      "3-4 message delays at every delta; LP22 waits out its clock-paced epoch,\n"
      "~(f+1) Gamma_LP22 = 120 ms, even at delta = 0.1 ms. Each silent leader adds\n"
      "the views it holds in a row: Gamma_LP22 for LP22, a 2 Gamma tenure for Fever\n"
      "and Basic Lumiere, at most 4 Gamma for Lumiere: O(f_a Delta + delta). Under\n"
      "the selective-QC attack all four stay live; LP22 and Basic Lumiere keep\n"
      "paying heavy epoch syncs, Lumiere only its bootstrap exchange.\n");

  run_warmup(args.quick, json);
  std::printf(
      "\nReading guide: first success comes within one epoch (10n Gamma) of GST and\n"
      "grows ~n^1: 'within expected O(n Delta) of GST'. No heavy message comes\n"
      "later than one epoch after the first success; at these seeds the last is the\n"
      "bootstrap exchange before GST (negative quiescence). First decisions land\n"
      "10-90x before first success.\n");

  run_ablation(args.quick, json);
  std::printf(
      "\nReading guide: the success criterion is the whole 'epoch msgs' difference:\n"
      "Basic Lumiere pays the heavy sync every epoch, over 100x Lumiere's bootstrap\n"
      "count. A larger Gamma, or a longer Fever tenure (Gamma = (2 + tenure x)\n"
      "Delta / (tenure - 1) falls toward x Delta), trades stall for slack. Drift up\n"
      "to 5%% moves the stall by at most 2 rho of it. HotStuff-2 commits a round\n"
      "sooner than chained HotStuff ([14]).\n");
  if (!args.json_path.empty() && !json.write(args.json_path, "table1")) return 1;
  return 0;
}
