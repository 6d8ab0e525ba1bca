// Authenticator suite costs and the staged-verification payoff.
//
// Two artifacts in one binary:
//
//   * micro: per-scheme sign / verify / share / aggregate timings for
//     every registered authenticator scheme (crypto/authenticator.h).
//     This is the "what does a real signature cost relative to the sim
//     default" table that motivates the pipeline.
//   * stage-throughput: the VerifyPipeline itself (runtime/pipeline.h)
//     fed pre-encoded frames under the costliest scheme, sweeping the
//     worker count. The measured sustained frame rate IS the saturation
//     knee of the verification stage — the offered rate beyond which the
//     stage falls behind — and the claim under test is that it moves
//     strictly up from 1 worker to >= 4 workers.
//   * scaling: the end-to-end request path over TCP under the same
//     scheme, signature checks inline (pipeline off) vs staged
//     (pipeline(on), 1..N workers) across an offered-rate sweep. At
//     n = 4 with batching the consensus cadence, not verification,
//     bounds end-to-end throughput — these rows are the context that
//     the staged path costs nothing end to end.
//
//   ./build/bench_auth [--quick] [--json BENCH_auth.json]
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "crypto/authenticator.h"
#include "consensus/messages.h"
#include "pacemaker/messages.h"
#include "runtime/pipeline.h"
#include "workload/engine.h"
#include "workload/report.h"

namespace lumiere::bench {
namespace {

constexpr std::uint32_t kN = 4;
constexpr std::uint32_t kClientsPerNode = 2;

// ------------------------------------------------------------------ micro

double ns_per_op(const std::function<void()>& op, int iters) {
  // One untimed pass warms caches; the timed loop amortizes clock reads.
  op();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) op();
  const auto stop = std::chrono::steady_clock::now();
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start).count()) /
         iters;
}

struct MicroRow {
  std::string scheme;
  double sign_ns = 0;
  double verify_ns = 0;
  double share_verify_ns = 0;
  double aggregate_verify_ns = 0;
};

MicroRow measure_scheme(const std::string& scheme, bool quick) {
  const int iters = quick ? 200 : 2000;
  const auto auth = crypto::make_authenticator(scheme, kN, 42);
  const crypto::AuthView view(auth.get());
  const crypto::Digest msg = crypto::Sha256::hash("bench-auth statement");
  const crypto::Signer signer = auth->signer_for(0);
  const crypto::Signature sig = signer.sign(msg);
  const crypto::PartialSig share = crypto::threshold_share(signer, msg);
  crypto::QuorumAggregator agg(view, msg, 3);
  for (ProcessId id = 0; id < 3; ++id) {
    agg.add(crypto::threshold_share(auth->signer_for(id), msg));
  }
  const crypto::ThresholdSig aggregate = agg.aggregate();

  MicroRow row;
  row.scheme = scheme;
  row.sign_ns = ns_per_op([&] { (void)signer.sign(msg); }, iters);
  row.verify_ns = ns_per_op([&] { (void)auth->verify(msg, sig); }, iters);
  row.share_verify_ns = ns_per_op([&] { (void)auth->check_share(msg, share); }, iters);
  row.aggregate_verify_ns = ns_per_op([&] { (void)auth->check_aggregate(aggregate); }, iters);
  return row;
}

/// The costliest registered scheme by single-signature verify time: the
/// one whose checks most need to leave the critical thread.
std::string costliest_scheme(const std::vector<MicroRow>& micro) {
  const MicroRow* worst = &micro.front();
  for (const MicroRow& row : micro) {
    if (row.verify_ns > worst->verify_ns) worst = &row;
  }
  return worst->scheme;
}

// ------------------------------------------------------- stage throughput

struct StageRow {
  std::uint32_t workers = 0;
  double frames_per_sec = 0;  ///< sustained decode+verify rate = stage knee
  double claims_per_sec = 0;
};

/// Sustained decode+verify rate of one node's pool at `workers` threads:
/// submit a fixed batch of real encoded frames (one threshold-share claim
/// each) and time until every result drained. The pool is saturated the
/// whole run, so frames/elapsed is the rate beyond which the stage would
/// fall behind — its knee.
StageRow measure_stage(const std::string& scheme, std::uint32_t workers, int frames) {
  const auto auth = crypto::make_authenticator(scheme, kN, 11);
  MessageCodec codec;
  consensus::register_consensus_messages(codec);
  pacemaker::register_pacemaker_messages(codec);
  codec.set_sig_wire(auth->wire_spec());
  runtime::PipelineSpec spec;
  spec.enabled = true;
  spec.workers = workers;
  spec.queue_capacity = 256;
  runtime::VerifyPipeline pipeline(auth.get(), std::move(codec), spec);

  // Distinct statements so no scheme/memo layer can amortize the work.
  std::vector<std::vector<std::uint8_t>> encoded;
  encoded.reserve(frames);
  for (int i = 0; i < frames; ++i) {
    const View v = i;
    const pacemaker::ViewMsg msg(
        v, crypto::threshold_share(auth->signer_for(i % kN), pacemaker::view_msg_statement(v)));
    encoded.push_back(MessageCodec::encode(msg));
  }

  pipeline.start();
  std::size_t drained = 0;
  const auto start = std::chrono::steady_clock::now();
  for (const auto& frame : encoded) {
    pipeline.submit(1, frame);                  // blocks on backpressure
    drained += pipeline.drain([](auto&&) {});   // keep egress bounded too
  }
  while (drained < static_cast<std::size_t>(frames)) {
    drained += pipeline.drain([](auto&&) {});
    if (drained < static_cast<std::size_t>(frames)) std::this_thread::yield();
  }
  const auto stop = std::chrono::steady_clock::now();
  pipeline.stop();

  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(stop - start).count();
  StageRow row;
  row.workers = workers;
  row.frames_per_sec = frames / secs;
  row.claims_per_sec = static_cast<double>(pipeline.stats().claims_checked) / secs;
  return row;
}

double stage_fps(const std::vector<StageRow>& rows, std::uint32_t workers) {
  for (const StageRow& row : rows) {
    if (row.workers == workers) return row.frames_per_sec;
  }
  return 0;
}

// ---------------------------------------------------------------- scaling

struct ScalingRow {
  std::string scheme;
  std::string mode;  ///< "inline" or "staged"
  std::uint32_t workers = 0;
  double offered_rps = 0;
  double committed_rps = 0;
  std::optional<Duration> p50;
  std::optional<Duration> p99;
};

workload::WorkloadSpec load_spec(double rate_per_client) {
  workload::WorkloadSpec spec;
  spec.arrival = workload::Arrival::kConstant;  // steady pressure, no bursts
  spec.clients_per_node = kClientsPerNode;
  spec.rate_per_client = rate_per_client;
  spec.request_bytes = 64;
  spec.mempool.max_batch_bytes = 4096;
  spec.mempool.max_pending_count = 512;
  spec.mempool.max_pending_bytes = 64 * 1024;
  return spec;
}

ScalingRow measure_tcp(const std::string& scheme, std::uint32_t workers, double rate_per_client,
                       Duration run_for, std::uint16_t base_port) {
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(kN, bench_delta_cap(), /*x=*/4))
      .pacemaker("lumiere")
      .core("chained-hotstuff")
      .seed(9001)
      .auth_scheme(scheme)
      .workload(load_spec(rate_per_client))
      .transport_tcp(base_port);
  if (workers > 0) {
    runtime::PipelineSpec pipeline;
    pipeline.enabled = true;
    pipeline.workers = workers;
    pipeline.queue_capacity = 1024;
    builder.pipeline(pipeline);
  }
  Cluster cluster(builder);
  cluster.run_for(run_for);  // wall-clock

  const TimePoint from{run_for.ticks() / 4};  // skip the connect/boot quarter
  const TimePoint to{run_for.ticks()};
  const workload::Report report = cluster.workload_report();
  ScalingRow row;
  row.scheme = scheme;
  row.mode = workers > 0 ? "staged" : "inline";
  row.workers = workers;
  row.offered_rps = rate_per_client * kClientsPerNode * kN;
  row.committed_rps = report.committed_per_sec(from, to);
  row.p50 = report.latency_percentile_between(0.50, from, to);
  row.p99 = report.latency_percentile_between(0.99, from, to);
  return row;
}

/// First offered rate a configuration no longer absorbs (committed falls
/// under 90% of offered); 0 = unsaturated across the sweep.
double knee_of(const std::vector<ScalingRow>& rows, std::uint32_t workers) {
  for (const ScalingRow& row : rows) {
    if (row.workers != workers) continue;
    if (row.committed_rps < 0.9 * row.offered_rps) return row.offered_rps;
  }
  return 0;
}

/// Peak committed rate a configuration reached anywhere in the sweep.
double peak_of(const std::vector<ScalingRow>& rows, std::uint32_t workers) {
  double peak = 0;
  for (const ScalingRow& row : rows) {
    if (row.workers == workers) peak = std::max(peak, row.committed_rps);
  }
  return peak;
}

void run(const BenchArgs& args) {
  // -- micro ----------------------------------------------------------
  std::printf("\nPer-scheme primitive costs (ns/op):\n");
  std::printf("%-10s | %10s | %10s | %12s | %13s\n", "scheme", "sign", "verify", "share-verify",
              "agg-verify(3)");
  std::printf("-----------+------------+------------+--------------+--------------\n");
  std::vector<MicroRow> micro;
  for (const std::string& scheme : crypto::scheme_names()) {
    micro.push_back(measure_scheme(scheme, args.quick));
    const MicroRow& row = micro.back();
    std::printf("%-10s | %10.0f | %10.0f | %12.0f | %13.0f\n", row.scheme.c_str(), row.sign_ns,
                row.verify_ns, row.share_verify_ns, row.aggregate_verify_ns);
  }

  // -- stage throughput ----------------------------------------------
  const std::string scheme = costliest_scheme(micro);
  const int stage_frames = args.quick ? 1000 : 4000;
  std::printf("\nVerification-stage knee under \"%s\" (sustained decode+verify rate of one\n"
              "node's pool; the offered frame rate beyond which the stage falls behind):\n",
              scheme.c_str());
  std::printf("%7s | %12s | %12s\n", "workers", "frames/s", "claims/s");
  std::printf("--------+--------------+--------------\n");
  std::vector<StageRow> stage;
  for (const std::uint32_t workers : {1U, 2U, 4U, 8U}) {
    stage.push_back(measure_stage(scheme, workers, stage_frames));
    std::printf("%7u | %12.0f | %12.0f\n", stage.back().workers, stage.back().frames_per_sec,
                stage.back().claims_per_sec);
  }
  const double stage_knee_one = stage_fps(stage, 1);
  const double stage_knee_four = stage_fps(stage, 4);
  const unsigned host_cpus = std::max(1U, std::thread::hardware_concurrency());
  std::printf("> knee moved %.0f -> %.0f frames/s (%.2fx) from 1 to 4 workers on %u host cpus\n",
              stage_knee_one, stage_knee_four,
              stage_knee_one > 0 ? stage_knee_four / stage_knee_one : 0.0, host_cpus);
  if (host_cpus < 4) {
    std::printf("  (host has < 4 cpus: workers time-slice one core, so the curve is flat\n"
                "   here by construction — read the multi-core CI artifact for the claim)\n");
  }

  // -- scaling --------------------------------------------------------
  const std::vector<std::uint32_t> worker_configs =
      args.quick ? std::vector<std::uint32_t>{0, 1, 4} : std::vector<std::uint32_t>{0, 1, 2, 4, 8};
  const std::vector<double> rates =
      args.quick ? std::vector<double>{100, 400} : std::vector<double>{100, 400, 1000, 2000};
  const Duration tcp_run = args.quick ? Duration::millis(1200) : Duration::seconds(2);

  std::printf("\nTCP request path under \"%s\" (the costliest scheme), pipeline off vs on:\n",
              scheme.c_str());
  std::printf("%-7s | %7s | %9s | %11s | %9s | %9s\n", "mode", "workers", "offered/s",
              "committed/s", "p50 (ms)", "p99 (ms)");
  std::printf("--------+---------+-----------+-------------+-----------+-----------\n");
  std::vector<ScalingRow> scaling;
  std::uint16_t next_port = 27000;
  for (const std::uint32_t workers : worker_configs) {
    for (const double rate : rates) {
      scaling.push_back(measure_tcp(scheme, workers, rate, tcp_run, next_port));
      next_port = static_cast<std::uint16_t>(next_port + kN);
      const ScalingRow& row = scaling.back();
      std::printf("%-7s | %7u | %9.0f | %11.1f | %9s | %9s\n", row.mode.c_str(), row.workers,
                  row.offered_rps, row.committed_rps, fmt_ms(row.p50).c_str(),
                  fmt_ms(row.p99).c_str());
    }
  }

  const double knee_one = knee_of(scaling, 1);
  const double knee_four = knee_of(scaling, 4);
  const double peak_one = peak_of(scaling, 1);
  const double peak_four = peak_of(scaling, 4);
  std::printf("\n> 1 worker:  knee at offered %.0f req/s, peak committed %.1f req/s\n",
              knee_one, peak_one);
  std::printf("> 4 workers: knee at offered %.0f req/s, peak committed %.1f req/s\n",
              knee_four, peak_four);
  std::printf("(knee 0 = unsaturated across this sweep; the staged pool scales when the\n"
              " 4-worker knee/peak sits strictly above the 1-worker one)\n");

  // -- artifact -------------------------------------------------------
  JsonRows json;
  for (const MicroRow& row : micro) {
    json.add_row()
        .set("section", "micro")
        .set("scheme", row.scheme)
        .set("sign_ns", row.sign_ns)
        .set("verify_ns", row.verify_ns)
        .set("share_verify_ns", row.share_verify_ns)
        .set("aggregate_verify_ns", row.aggregate_verify_ns);
  }
  for (const StageRow& row : stage) {
    json.add_row()
        .set("section", "stage-throughput")
        .set("scheme", scheme)
        .set("workers", static_cast<std::uint64_t>(row.workers))
        .set("frames_per_sec", row.frames_per_sec)
        .set("claims_per_sec", row.claims_per_sec);
  }
  for (const ScalingRow& row : scaling) {
    json.add_row()
        .set("section", "scaling")
        .set("scheme", row.scheme)
        .set("mode", row.mode)
        .set("workers", static_cast<std::uint64_t>(row.workers))
        .set("offered_rps", row.offered_rps)
        .set("committed_rps", row.committed_rps)
        .set_ms("p50_ms", row.p50)
        .set_ms("p99_ms", row.p99);
  }
  json.add_row()
      .set("section", "summary")
      .set("scheme", scheme)
      .set("sha256_kernel", crypto::sha256_kernel())
      .set("host_cpus", static_cast<std::uint64_t>(host_cpus))
      .set("verify_knee_fps_1_worker", stage_knee_one)
      .set("verify_knee_fps_4_workers", stage_knee_four)
      .set("verify_knee_scaling_x", stage_knee_one > 0 ? stage_knee_four / stage_knee_one : 0.0)
      .set("tcp_knee_rps_1_worker", knee_one)
      .set("tcp_knee_rps_4_workers", knee_four)
      .set("tcp_peak_rps_1_worker", peak_one)
      .set("tcp_peak_rps_4_workers", peak_four);
  if (!args.json_path.empty() && !json.write(args.json_path, "auth")) {
    std::exit(1);
  }
}

}  // namespace
}  // namespace lumiere::bench

int main(int argc, char** argv) {
  const lumiere::bench::BenchArgs args = lumiere::bench::parse_bench_args(argc, argv);
  std::printf("bench_auth: authenticator scheme costs and staged-verification scaling\n"
              "(all registered schemes; TCP sweep under the costliest one, n = %u)\n"
              "sha256 kernel: %s\n",
              4U, lumiere::crypto::sha256_kernel());
  lumiere::bench::run(args);
  return 0;
}
