// Seamlessness: what a scripted partition costs each protocol — the
// "clients pay for faults only when they actually happen" claim
// (PAPER.md Sections 1 and 6; the metric Autobahn calls seamlessness).
//
// Scenario, per protocol: n = 7 under a benign 0.5ms network; the fault
// schedule cuts the cluster into {0..3} | {4..6} (neither side holds a
// 2f+1 = 5 quorum, so decisions MUST stall), heals two seconds later,
// and the run continues. The partition parks cross-cut traffic (the
// partial-synchrony adversary delays, never destroys), so every protocol
// keeps its liveness assumptions; what differs is the bill:
//
//   recovery   heal -> first decision, and the worst gap afterwards —
//              every synchronizer here restores commit latency quickly
//              once the network returns (lumiere within one epoch step);
//   cut sync   honest messages sent WHILE the network was down: pure
//              synchronization spend, since nothing can commit. The
//              timeout-ladder protocols (cogsworth, nk20) keep timing
//              out, wishing and relaying for the whole cut — their spend
//              grows linearly with the cut and sits ~5x above lumiere /
//              fever, which park after one failed synchronization and
//              wait quietly (Theorem 1.1 (4): one heavy sync per
//              asynchronous interval, not a recurring tax).
//
// With --dissem={on,off} the binary instead runs the data-dissemination
// ablation (the Autobahn decoupling claim): n = 13 under client load, a
// QUORUM-PRESERVING partition {0..8} | {9..12} — the majority side keeps
// 2f+1 = 9, so consensus keeps committing through the cut — and the
// committed-request rate through the cut is the metric. With
// dissemination off, a request commits only when its own node leads a
// successful view and each proposal carries one leader-local batch, so
// throughput collapses to a fraction of the offered load; with it on,
// every certified batch from every connected origin is available to
// whichever leader proposes next, and proposals drain the whole
// majority's backlog as fixed-size references. Compare two runs
// (--dissem=on vs --dissem=off) on the cut_rps column.
//
//   ./build/bench_seamless [--quick] [--json BENCH_seamless.json]
//   ./build/bench_seamless --quick --dissem=on --json BENCH_dissem.json
#include <cstdio>

#include "bench_util.h"
#include "workload/engine.h"
#include "workload/report.h"

namespace lumiere::bench {
namespace {

constexpr std::uint32_t kN = 7;
const TimePoint kCutAt{Duration::seconds(4).ticks()};
const Duration kCutLen = Duration::seconds(2);
const TimePoint kHealAt = kCutAt + kCutLen;
const Duration kRunFor = Duration::seconds(12);
/// Steady-state window measured before the cut (skips bootstrap).
const TimePoint kPreFrom{Duration::seconds(1).ticks()};
/// One tick. run_until(edge - kTick) runs every event before `edge` and
/// none at it, so a total read there and one read the same way at a later
/// edge differ by exactly what was sent in [edge, later edge).
const Duration kTick = Duration::micros(1);

struct SeamlessRow {
  std::string protocol;
  std::optional<Duration> pre_gap;     ///< worst gap in [1s, cut)
  std::uint64_t cut_decisions = 0;     ///< decisions in [cut + Delta, heal)
  std::uint64_t cut_sync_msgs = 0;     ///< honest msgs sent in [cut, heal)
  std::optional<Duration> recovery;    ///< heal -> first decision
  std::optional<Duration> post_gap;    ///< worst gap after recovery
};

SeamlessRow measure(const std::string& pacemaker, std::uint64_t seed) {
  ScenarioBuilder builder = table1_scenario(pacemaker, kN, seed);
  builder.delay(std::make_shared<sim::FixedDelay>(Duration::micros(500)));
  builder.partition({{0, 1, 2, 3}, {4, 5, 6}}, kCutAt);
  builder.heal(kHealAt);
  Cluster cluster(builder);
  cluster.run_until(kCutAt - kTick);
  const std::uint64_t sent_before_cut = cluster.metrics().total_honest_msgs();
  cluster.run_until(kHealAt - kTick);
  const std::uint64_t sent_before_heal = cluster.metrics().total_honest_msgs();
  cluster.run_until(TimePoint(kRunFor.ticks()));

  const runtime::MetricsCollector& metrics = cluster.metrics();
  SeamlessRow row;
  row.protocol = pacemaker;
  row.pre_gap = metrics.max_decision_gap_between(kPreFrom, kCutAt);
  // In-flight pre-cut messages may still complete one QC within Delta of
  // the cut; past that, a decision would mean the partition leaked.
  row.cut_decisions = metrics.decisions_between(kCutAt + kTable1Delta, kHealAt);
  row.cut_sync_msgs = sent_before_heal - sent_before_cut;
  row.recovery = metrics.latency_to_first_decision(kHealAt);
  if (row.recovery) {
    row.post_gap = metrics.max_decision_gap_between(kHealAt + *row.recovery + Duration::millis(200),
                                                    TimePoint(kRunFor.ticks()));
  }
  return row;
}

// ---- data-dissemination ablation (--dissem={on,off}) ----

/// n = 13: f = 4, quorum = 9 — the partitioned majority {0..8} is
/// exactly one quorum, so decisions ride through the cut.
constexpr std::uint32_t kDissemN = 13;
constexpr std::uint32_t kDissemClientsPerNode = 2;
/// Per-client Poisson rate: 13 x 2 x 400 = 10400 req/s offered, far past
/// what one leader-local 4 KiB batch per view can carry — the regime
/// where ordering pointers instead of payloads pays.
constexpr double kDissemRate = 400;

struct DissemRow {
  std::string protocol;
  double offered_rps = 0;
  double pre_rps = 0;        ///< committed req/s in [1s, cut)
  double cut_rps = 0;        ///< committed req/s in [cut + Delta, heal)
  double post_rps = 0;       ///< committed req/s in [heal + 200ms, end)
  std::uint64_t certs = 0;   ///< batches certified over the whole run
  std::optional<Duration> cert_p50;  ///< batch issue -> certified, p50
  std::uint64_t cut_dissem_bytes = 0;  ///< dissemination bytes in [cut, heal)
  std::uint64_t shed = 0;
  std::uint64_t commit_misses = 0;  ///< commits matching no submission (must be 0)
};

DissemRow measure_dissem(const std::string& pacemaker, bool dissem, bool quick,
                         std::uint64_t seed) {
  const TimePoint cut_at{Duration::seconds(quick ? 2 : 3).ticks()};
  const TimePoint heal_at = cut_at + Duration::seconds(2);
  const Duration run_for = Duration::seconds(quick ? 6 : 9);

  workload::WorkloadSpec spec;
  spec.arrival = workload::Arrival::kPoisson;
  spec.clients_per_node = kDissemClientsPerNode;
  spec.rate_per_client = kDissemRate;
  spec.request_bytes = 64;
  spec.mempool.max_batch_bytes = 4096;
  spec.mempool.max_pending_count = 512;
  spec.mempool.max_pending_bytes = 64 * 1024;

  ScenarioBuilder builder = table1_scenario(pacemaker, kDissemN, seed);
  builder.params(ProtocolParams::for_n(kDissemN, kTable1Delta, /*x=*/4));
  builder.core("chained-hotstuff");
  builder.delay(std::make_shared<sim::FixedDelay>(Duration::micros(500)));
  builder.workload(spec);
  if (dissem) builder.dissemination();
  builder.partition({{0, 1, 2, 3, 4, 5, 6, 7, 8}, {9, 10, 11, 12}}, cut_at);
  builder.heal(heal_at);
  Cluster cluster(builder);
  cluster.run_until(cut_at - kTick);
  const std::uint64_t bytes_before_cut = cluster.metrics().dissem_bytes();
  cluster.run_until(heal_at - kTick);
  const std::uint64_t bytes_before_heal = cluster.metrics().dissem_bytes();
  cluster.run_until(TimePoint(run_for.ticks()));

  const workload::Report report = cluster.workload_report();
  const runtime::MetricsCollector& metrics = cluster.metrics();
  DissemRow row;
  row.protocol = pacemaker;
  row.offered_rps = kDissemRate * kDissemClientsPerNode * kDissemN;
  row.pre_rps = report.committed_per_sec(TimePoint{Duration::seconds(1).ticks()}, cut_at);
  row.cut_rps = report.committed_per_sec(cut_at + kTable1Delta, heal_at);
  row.post_rps = report.committed_per_sec(heal_at + Duration::millis(200),
                                          TimePoint{run_for.ticks()});
  row.certs = metrics.batches_certified();
  row.cert_p50 = metrics.batch_cert_latency_percentile(0.50);
  row.cut_dissem_bytes = bytes_before_heal - bytes_before_cut;
  row.shed = report.shed;
  row.commit_misses = report.commit_misses;
  return row;
}

/// Checks one reading-guide claim for a row: `value` must be 0.
bool zero_or_report(const std::string& protocol, const char* column, std::uint64_t value) {
  if (value == 0) return true;
  std::fprintf(stderr, "bench_seamless: %s reads %llu \"%s\"; the reading guide says 0\n",
               protocol.c_str(), static_cast<unsigned long long>(value), column);
  return false;
}

/// Returns false when a row contradicts the reading guide.
bool run_dissem(const BenchArgs& args, bool dissem) {
  const std::vector<std::string> protocols =
      args.quick ? std::vector<std::string>{"lumiere"}
                 : std::vector<std::string>{"lumiere", "fever", "cogsworth"};

  std::printf("\n=== Dissemination ablation (%s): quorum-preserving partition "
              "{0-8}|{9-12}, n = %u, 2s cut, %.0f req/s offered ===\n",
              dissem ? "on" : "off", kDissemN,
              kDissemRate * kDissemClientsPerNode * kDissemN);
  std::printf("%-14s | %9s | %9s | %9s | %9s | %6s | %9s | %11s | %7s | %6s\n", "protocol",
              "offered/s", "pre req/s", "cut req/s", "post req/s", "certs", "cert p50",
              "cut dis KiB", "shed", "misses");
  std::printf("---------------+-----------+-----------+-----------+-----------+--------+------"
              "-----+-------------+---------+-------\n");

  JsonRows json;
  bool ok = true;
  for (const std::string& protocol : protocols) {
    const DissemRow row = measure_dissem(protocol, dissem, args.quick, 9102);
    ok = zero_or_report(row.protocol, "misses", row.commit_misses) && ok;
    std::printf("%-14s | %9.0f | %9.1f | %9.1f | %9.1f | %6llu | %9s | %11.1f | %7llu | %6llu\n",
                row.protocol.c_str(), row.offered_rps, row.pre_rps, row.cut_rps, row.post_rps,
                static_cast<unsigned long long>(row.certs), fmt_ms(row.cert_p50).c_str(),
                static_cast<double>(row.cut_dissem_bytes) / 1024.0,
                static_cast<unsigned long long>(row.shed),
                static_cast<unsigned long long>(row.commit_misses));
    json.add_row()
        .set("protocol", row.protocol)
        .set("dissem", dissem ? "on" : "off")
        .set("n", static_cast<std::uint64_t>(kDissemN))
        .set("offered_rps", row.offered_rps)
        .set("pre_rps", row.pre_rps)
        .set("cut_rps", row.cut_rps)
        .set("post_rps", row.post_rps)
        .set("batches_certified", row.certs)
        .set_ms("cert_p50_ms", row.cert_p50)
        .set("cut_dissem_bytes", row.cut_dissem_bytes)
        .set("shed", row.shed)
        .set("commit_misses", row.commit_misses);
  }

  std::printf(
      "\nReading guide: the majority side holds a quorum, so commits ride through the\n"
      "cut either way — what differs is how many. Off: each successful view carries\n"
      "one leader-local <=4 KiB batch, so cut req/s is capped by view cadence and\n"
      "every other node's requests wait for their own leadership slot. On: every\n"
      "majority batch certifies (f+1 = 5 acks) and the next proposer orders it by\n"
      "reference, so cut req/s roughly doubles off's, yet it stays far below the\n"
      "majority's offered load (~7200 req/s): --quick measures ~2550 on against\n"
      "~1210 off (the simulator is deterministic, so these repeat on any host).\n"
      "\"misses\" must be 0: every committed request matches exactly one client\n"
      "submission (the binary exits 1 otherwise).\n"
      "Compare --dissem=on vs --dissem=off runs on the cut req/s column.\n");

  if (!args.json_path.empty() && !json.write(args.json_path, "seamless_dissem")) {
    std::exit(1);
  }
  return ok;
}

/// Returns false when a row contradicts the reading guide.
bool run(const BenchArgs& args) {
  if (args.dissem.has_value()) return run_dissem(args, *args.dissem);
  const std::vector<std::string> protocols =
      args.quick ? std::vector<std::string>{"cogsworth", "nk20", "fever", "lumiere"}
                 : std::vector<std::string>{"cogsworth", "nk20",          "lp22",
                                            "fever",     "basic-lumiere", "lumiere"};

  std::printf("\n=== Seamlessness: %llds partition {0-3}|{4-6}, n = %u, delta = 0.5ms, "
              "cut at %.0fs ===\n",
              static_cast<long long>(kCutLen.ticks() / 1'000'000), kN, kCutAt.to_seconds());
  std::printf("%-14s | %12s | %8s | %13s | %12s | %13s | %12s\n", "protocol", "pre gap (ms)",
              "cut decs", "cut sync msgs", "vs lumiere", "recovery (ms)", "post gap (ms)");
  std::printf("---------------+--------------+----------+---------------+--------------+-----"
              "----------+-------------\n");

  std::vector<SeamlessRow> rows;
  rows.reserve(protocols.size());
  for (const std::string& protocol : protocols) rows.push_back(measure(protocol, 2024));

  std::uint64_t lumiere_sync = 0;
  for (const SeamlessRow& row : rows) {
    if (row.protocol == "lumiere") lumiere_sync = row.cut_sync_msgs;
  }

  JsonRows json;
  bool ok = true;
  for (const SeamlessRow& row : rows) {
    ok = zero_or_report(row.protocol, "cut decs", row.cut_decisions) && ok;
    const double penalty = lumiere_sync > 0 ? static_cast<double>(row.cut_sync_msgs) /
                                                  static_cast<double>(lumiere_sync)
                                            : 0.0;
    std::printf("%-14s | %12s | %8llu | %13llu | %11.1fx | %13s | %12s\n", row.protocol.c_str(),
                fmt_ms(row.pre_gap).c_str(),
                static_cast<unsigned long long>(row.cut_decisions),
                static_cast<unsigned long long>(row.cut_sync_msgs), penalty,
                fmt_ms(row.recovery).c_str(), fmt_ms(row.post_gap).c_str());
    json.add_row()
        .set("protocol", row.protocol)
        .set("n", static_cast<std::uint64_t>(kN))
        .set("cut_seconds", static_cast<double>(kCutLen.ticks()) / 1e6)
        .set_ms("pre_gap_ms", row.pre_gap)
        .set("cut_decisions", row.cut_decisions)
        .set("cut_sync_msgs", row.cut_sync_msgs)
        .set("penalty_vs_lumiere", penalty)
        .set_ms("recovery_ms", row.recovery)
        .set_ms("post_gap_ms", row.post_gap);
  }

  std::printf(
      "\nReading guide: \"cut decs\" must be 0 (no quorum exists inside the cut; the\n"
      "binary exits 1 otherwise) and every protocol's recovery is fast once the\n"
      "network heals — the partition parks messages, preserving the\n"
      "reliable-channel assumption. The bill that differs is \"cut sync msgs\":\n"
      "lumiere and fever park after one failed synchronization and wait for the\n"
      "network, while cogsworth/nk20 burn a timeout-and-relay ladder for the\n"
      "whole cut — --quick measures 4.9-5.0x lumiere's spend, which grows\n"
      "linearly with the cut length, paid exactly when bandwidth is scarcest.\n");

  if (!args.json_path.empty() && !json.write(args.json_path, "seamless")) {
    std::exit(1);
  }
  return ok;
}

}  // namespace
}  // namespace lumiere::bench

int main(int argc, char** argv) {
  const lumiere::bench::BenchArgs args = lumiere::bench::parse_bench_args(argc, argv);
  std::printf("bench_seamless: the cost of a scripted partition, per protocol "
              "(fault-schedule engine)\n");
  return lumiere::bench::run(args) ? 0 : 1;
}
