// End-to-end request path: arrival-rate sweep per pacemaker, locating
// saturation throughput and the latency knee.
//
// Open-loop Poisson clients (2 per node, n = 4) offer a fixed request
// rate against bounded mempools; the engine reports what actually
// committed (requests/sec) and what it cost each request (submit ->
// commit latency p50/p95/p99). Below saturation committed == offered and
// latency sits near the commit cadence; past it the pool fills, drivers
// shed, and the p99 walks away — the knee. The same sweep runs on the
// deterministic simulator and on the TCP transport (real frames,
// wall-clock pacing), so the sim numbers can be sanity-checked against
// real sockets.
//
//   ./build/bench_workload [--quick] [--json BENCH_workload.json]
#include <cstdio>

#include "bench_util.h"
#include "workload/engine.h"
#include "workload/report.h"

namespace lumiere::bench {
namespace {

constexpr std::uint32_t kN = 4;
constexpr std::uint32_t kClientsPerNode = 2;

struct WorkloadRow {
  std::string transport;
  std::string pacemaker;
  double offered_rps = 0;    ///< cluster-wide request arrival rate
  double committed_rps = 0;  ///< requests/sec actually committed
  std::optional<Duration> p50;
  std::optional<Duration> p95;
  std::optional<Duration> p99;
  std::uint64_t shed = 0;         ///< open-loop drops on backpressure
  std::uint64_t max_depth = 0;    ///< deepest mempool backlog observed
};

workload::WorkloadSpec spec_for(double rate_per_client) {
  workload::WorkloadSpec spec;
  spec.arrival = workload::Arrival::kPoisson;
  spec.clients_per_node = kClientsPerNode;
  spec.rate_per_client = rate_per_client;
  spec.request_bytes = 64;
  spec.mempool.max_batch_bytes = 4096;
  spec.mempool.max_pending_count = 512;
  spec.mempool.max_pending_bytes = 64 * 1024;
  return spec;
}

WorkloadRow measure_sim(const std::string& pacemaker, double rate_per_client,
                        Duration run_for, bool dissem) {
  ScenarioBuilder builder = table1_scenario(pacemaker, kN, 7001);
  builder.params(ProtocolParams::for_n(kN, kTable1Delta, /*x=*/4));
  builder.core("chained-hotstuff");
  builder.delay(std::make_shared<lumiere::sim::FixedDelay>(Duration::micros(500)));
  builder.workload(spec_for(rate_per_client));
  if (dissem) builder.dissemination();
  Cluster cluster(builder);
  cluster.run_for(run_for);

  // Measure past the bootstrap (first second): epoch synchronization and
  // initial queue fill would otherwise pollute the steady-state numbers.
  const TimePoint from{Duration::seconds(1).ticks()};
  const TimePoint to{run_for.ticks()};
  const workload::Report report = cluster.workload_report();
  WorkloadRow row;
  row.transport = "sim";
  row.pacemaker = pacemaker;
  row.offered_rps = rate_per_client * kClientsPerNode * kN;
  row.committed_rps = report.committed_per_sec(from, to);
  row.p50 = report.latency_percentile_between(0.50, from, to);
  row.p95 = report.latency_percentile_between(0.95, from, to);
  row.p99 = report.latency_percentile_between(0.99, from, to);
  row.shed = report.shed;
  row.max_depth = report.max_queue_depth;
  return row;
}

WorkloadRow measure_tcp(const std::string& pacemaker, double rate_per_client,
                        Duration run_for, std::uint16_t base_port, bool dissem) {
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(kN, kTable1Delta, /*x=*/4))
      .pacemaker(pacemaker)
      .core("chained-hotstuff")
      .seed(7001)
      .workload(spec_for(rate_per_client))
      .transport_tcp(base_port);
  if (dissem) builder.dissemination();
  Cluster cluster(builder);
  cluster.run_for(run_for);  // wall-clock: 1 simulated us = 1 us

  const TimePoint from{run_for.ticks() / 4};  // skip the connect/boot quarter
  const TimePoint to{run_for.ticks()};
  const workload::Report report = cluster.workload_report();
  WorkloadRow row;
  row.transport = "tcp";
  row.pacemaker = pacemaker;
  row.offered_rps = rate_per_client * kClientsPerNode * kN;
  row.committed_rps = report.committed_per_sec(from, to);
  row.p50 = report.latency_percentile_between(0.50, from, to);
  row.p95 = report.latency_percentile_between(0.95, from, to);
  row.p99 = report.latency_percentile_between(0.99, from, to);
  row.shed = report.shed;
  row.max_depth = report.max_queue_depth;
  return row;
}

void print_row(const WorkloadRow& row) {
  std::printf("%-5s | %-14s | %9.0f | %11.1f | %9s | %9s | %9s | %7llu | %6llu\n",
              row.transport.c_str(), row.pacemaker.c_str(), row.offered_rps,
              row.committed_rps, fmt_ms(row.p50).c_str(), fmt_ms(row.p95).c_str(),
              fmt_ms(row.p99).c_str(), static_cast<unsigned long long>(row.shed),
              static_cast<unsigned long long>(row.max_depth));
}

void run(const BenchArgs& args) {
  const bool dissem = args.dissem.value_or(false);
  const std::vector<std::string> protocols =
      args.quick ? std::vector<std::string>{"lumiere", "cogsworth"}
                 : table1_protocols();
  // Per-client arrival rates; cluster-wide offered = rate x 8 clients.
  const std::vector<double> rates =
      args.quick ? std::vector<double>{25, 100, 400} : std::vector<double>{25, 100, 400, 1600};
  const Duration sim_run = args.quick ? Duration::seconds(5) : Duration::seconds(12);
  const Duration tcp_run = args.quick ? Duration::millis(1200) : Duration::seconds(2);

  std::printf("\n%-5s | %-14s | %9s | %11s | %9s | %9s | %9s | %7s | %6s\n", "xport",
              "protocol", "offered/s", "committed/s", "p50 (ms)", "p95 (ms)", "p99 (ms)",
              "shed", "depth");
  std::printf("------+----------------+-----------+-------------+-----------+-----------+------"
              "-----+---------+-------\n");

  JsonRows json;
  std::uint16_t next_port = 26000;
  std::vector<WorkloadRow> rows;
  for (const std::string& pacemaker : protocols) {
    for (const double rate : rates) {
      rows.push_back(measure_sim(pacemaker, rate, sim_run, dissem));
      print_row(rows.back());
    }
    for (const double rate : rates) {
      rows.push_back(measure_tcp(pacemaker, rate, tcp_run, next_port, dissem));
      next_port = static_cast<std::uint16_t>(next_port + kN);
      print_row(rows.back());
    }
    // Knee summary over the sim sweep: saturation = best committed rate;
    // the knee is the first offered rate the system no longer absorbs.
    double saturation = 0;
    double knee = 0;
    for (const WorkloadRow& row : rows) {
      if (row.pacemaker != pacemaker || row.transport != "sim") continue;
      saturation = std::max(saturation, row.committed_rps);
      if (knee == 0 && row.committed_rps < 0.9 * row.offered_rps) knee = row.offered_rps;
    }
    const std::string knee_note =
        knee > 0 ? " (knee at offered " + std::to_string(static_cast<int>(knee)) + " req/s)"
                 : ", unsaturated in this sweep";
    std::printf("      > %-14s saturation ~%.0f req/s%s\n", pacemaker.c_str(), saturation,
                knee_note.c_str());
  }

  for (const WorkloadRow& row : rows) {
    json.add_row()
        .set("transport", row.transport)
        .set("protocol", row.pacemaker)
        .set("dissem", dissem ? "on" : "off")
        .set("n", static_cast<std::uint64_t>(kN))
        .set("offered_rps", row.offered_rps)
        .set("committed_rps", row.committed_rps)
        .set_ms("p50_ms", row.p50)
        .set_ms("p95_ms", row.p95)
        .set_ms("p99_ms", row.p99)
        .set("shed", row.shed)
        .set("max_queue_depth", row.max_depth);
  }

  std::printf(
      "\nReading guide: below saturation committed/s tracks offered/s and p50 sits\n"
      "near the commit cadence; past the knee the bounded mempool fills, open-loop\n"
      "clients shed (offered != admitted), and p99 walks away from p50. The TCP rows\n"
      "run the identical scenario over real localhost frames with wall-clock pacing —\n"
      "shapes, not absolute values, are the comparison.\n");

  if (!args.json_path.empty() && !json.write(args.json_path, "workload")) {
    std::exit(1);
  }
}

}  // namespace
}  // namespace lumiere::bench

int main(int argc, char** argv) {
  const lumiere::bench::BenchArgs args = lumiere::bench::parse_bench_args(argc, argv);
  std::printf("bench_workload: client request throughput and latency vs arrival rate\n"
              "(open-loop Poisson, n = 4, 2 clients/node, 64B requests, bounded mempools,\n"
              "dissemination %s)\n",
              args.dissem.value_or(false) ? "on: proposals order certified batch references"
                                          : "off: legacy inline batches");
  lumiere::bench::run(args);
  return 0;
}
