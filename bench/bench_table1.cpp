// Reproduces Table 1: "Summary of the results for state-of-the-art
// optimistically responsive protocols", in three sections that measure
// through runtime/experiment.h:
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
//     nodes' SyncSpans (obs/). The cluster pays n times a span's cost.
//
// Expected shape (paper):            worst comm  ev. comm    worst lat  ev. lat
//   Cogsworth/NK20                   O(n^3)      O(n+n fa^2) O(n^2 D)   O(fa^2 D + d)
//   LP22                             O(n^2)      O(n^2)      O(n D)     O(n D)
//   Fever (bounded-clocks model)     O(n^2)      O(n fa + n) O(n D)*    O(fa D + d)
//   Lumiere                          O(n^2)      O(n fa + n) O(n D)     O(fa D + d)
// (*Fever's worst-case latency is O(fa D + d) in its own model; under a
//  desynchronized start it has no guarantee at all — which is the point.)
//
// tests/integration/table1_claims_test.cpp checks these shapes on the
// growth and sync sections' --quick points; README "Benchmarks" maps the
// columns to the paper.
//
//   ./build/bench_table1 [--quick] [--json BENCH_table1.json]
#include <cstdio>

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
  std::vector<std::pair<double, double>> worst;
  std::vector<std::pair<double, double>> ev_full;
  std::vector<std::pair<double, double>> ev_one;
  std::vector<std::pair<double, double>> lat_one;
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
    double ev_comm_one = 0;
    double ev_lat_one_ms = 0;
    if (one.comm && one.latency) {
      ev_comm_one = static_cast<double>(*one.comm);
      ev_lat_one_ms = static_cast<double>(one.latency->ticks()) / 1000.0;
    }
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
    worst.emplace_back(n, worst_comm);
    ev_full.emplace_back(n, ev_comm_full);
    ev_one.emplace_back(n, ev_comm_one);
    lat_one.emplace_back(n, ev_lat_one_ms);
  }
  const auto fit = obs::ComplexityLedger::fit_exponent;
  const double worst_exp = fit(worst);
  const double ev_full_exp = fit(ev_full);
  const double ev_one_exp = fit(ev_one);
  const double lat_one_exp = fit(lat_one);
  std::printf("fitted n-exponents: worst comm %.2f | ev comm fa=f %.2f | ev comm fa=1 %.2f | "
              "ev lat fa=1 %.2f\n",
              worst_exp, ev_full_exp, ev_one_exp, lat_one_exp);
  json.add_row()
      .set("section", "growth")
      .set("protocol", pacemaker)
      .set("fit_worst_comm", worst_exp)
      .set("fit_ev_comm_fa_f", ev_full_exp)
      .set("fit_ev_comm_fa_1", ev_one_exp)
      .set("fit_ev_lat_fa_1", lat_one_exp);
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
      "times the columns, and the exponents are per node too. RareSync/LP22's\n"
      "all-to-all epoch sync grows ~n^1 per node (~n^2 cluster-wide); Lumiere's\n"
      "episode grows far slower under f silent leaders, reserving the quadratic\n"
      "for worst-case epochs (the Lewis-Pye bound).\n");
  if (!args.json_path.empty() && !json.write(args.json_path, "table1")) return 1;
  return 0;
}
