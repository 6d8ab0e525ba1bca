// Micro-benchmarks (google-benchmark) for the substrate hot paths:
// crypto, serialization, the event queue, and the simulated network.
// These are sanity/perf regressions, not paper artifacts.
#include <benchmark/benchmark.h>

#include "consensus/quorum_cert.h"
#include "crypto/sha256.h"
#include "crypto/authenticator.h"
#include "pacemaker/messages.h"
#include "ser/serializer.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace lumiere {
namespace {

void BM_Sha256(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(std::span<const std::uint8_t>(data)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(crypto::sha256_kernel());
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_DefaultSchemeSign(benchmark::State& state) {
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, 4, 1);
  const auto signer = auth->signer_for(0);
  const auto digest = crypto::Sha256::hash("message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer.sign(digest));
  }
  state.SetLabel(crypto::sha256_kernel());
}
BENCHMARK(BM_DefaultSchemeSign);

void BM_ThresholdAggregate(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t m = 2 * ((n - 1) / 3) + 1;
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, n, 1);
  const auto digest = crypto::Sha256::hash("statement");
  std::vector<crypto::PartialSig> shares;
  for (ProcessId id = 0; id < m; ++id) {
    shares.push_back(crypto::threshold_share(auth->signer_for(id), digest));
  }
  for (auto _ : state) {
    crypto::QuorumAggregator agg(crypto::AuthView(auth.get()), digest, m);
    for (const auto& share : shares) agg.add(share);
    benchmark::DoNotOptimize(agg.aggregate());
  }
}
BENCHMARK(BM_ThresholdAggregate)->Arg(4)->Arg(16)->Arg(64);

void BM_ThresholdVerify(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t m = 2 * ((n - 1) / 3) + 1;
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, n, 1);
  const auto digest = crypto::Sha256::hash("statement");
  crypto::QuorumAggregator agg(crypto::AuthView(auth.get()), digest, m);
  for (ProcessId id = 0; id < m; ++id) {
    agg.add(crypto::threshold_share(auth->signer_for(id), digest));
  }
  const auto sig = agg.aggregate();
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::AuthView(auth.get()).verify_aggregate(digest, sig, m));
  }
}
BENCHMARK(BM_ThresholdVerify)->Arg(4)->Arg(16)->Arg(64);

void BM_QcVerify(benchmark::State& state) {
  // Full verification of one QC per iteration: statement recompute plus
  // 2f+1 share-MAC checks. The baseline the memo competes against.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const ProtocolParams params = ProtocolParams::for_n(n, Duration::millis(10));
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, n, 1);
  const auto hash = crypto::Sha256::hash("block");
  const auto statement = consensus::QuorumCert::statement(7, hash);
  crypto::QuorumAggregator agg(crypto::AuthView(auth.get()), statement, params.quorum());
  for (ProcessId id = 0; id < params.quorum(); ++id) {
    agg.add(crypto::threshold_share(auth->signer_for(id), statement));
  }
  const consensus::QuorumCert qc(7, hash, agg.aggregate());
  for (auto _ : state) {
    benchmark::DoNotOptimize(qc.verify(crypto::AuthView(auth.get()), params));
  }
}
BENCHMARK(BM_QcVerify)->Arg(4)->Arg(16)->Arg(64);

void BM_QcVerifyCached(benchmark::State& state) {
  // Re-verifying a known-good QC through the memo: one serialize + one
  // SHA-256, independent of the quorum size.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const ProtocolParams params = ProtocolParams::for_n(n, Duration::millis(10));
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, n, 1);
  const auto hash = crypto::Sha256::hash("block");
  const auto statement = consensus::QuorumCert::statement(7, hash);
  crypto::QuorumAggregator agg(crypto::AuthView(auth.get()), statement, params.quorum());
  for (ProcessId id = 0; id < params.quorum(); ++id) {
    agg.add(crypto::threshold_share(auth->signer_for(id), statement));
  }
  const consensus::QuorumCert qc(7, hash, agg.aggregate());
  consensus::QcVerifyCache cache;
  benchmark::DoNotOptimize(qc.verify(crypto::AuthView(auth.get()), params, &cache));  // warm the memo
  for (auto _ : state) {
    benchmark::DoNotOptimize(qc.verify(crypto::AuthView(auth.get()), params, &cache));
  }
}
BENCHMARK(BM_QcVerifyCached)->Arg(4)->Arg(16)->Arg(64);

void BM_StatementCached(benchmark::State& state) {
  // The n-votes-for-one-block shape a leader aggregates every view.
  consensus::StatementCache cache;
  const auto hash = crypto::Sha256::hash("block");
  View view = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get(view, hash));
  }
}
BENCHMARK(BM_StatementCached);

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue queue;
    for (int i = 0; i < 1000; ++i) {
      queue.schedule(TimePoint(1000 - i), [] {});
    }
    TimePoint at;
    sim::EventFn fn;
    while (queue.pop(at, fn)) {
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_MessageRoundTrip(benchmark::State& state) {
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, 4, 1);
  const pacemaker::ViewMsg msg(
      42, crypto::threshold_share(auth->signer_for(0), pacemaker::view_msg_statement(42)));
  MessageCodec codec;
  pacemaker::register_pacemaker_messages(codec);
  for (auto _ : state) {
    const auto frame = MessageCodec::encode(msg);
    benchmark::DoNotOptimize(codec.decode(frame));
  }
}
BENCHMARK(BM_MessageRoundTrip);

void BM_NetworkBroadcast(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  sim::Simulator sim;
  sim::Network network(&sim, n, TimePoint::origin(), Duration::millis(10),
                       std::make_shared<sim::FixedDelay>(Duration::micros(100)), 1);
  for (ProcessId id = 0; id < n; ++id) {
    network.register_endpoint(id, [](ProcessId, const MessagePtr&) {});
  }
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, n, 1);
  const auto msg = std::make_shared<pacemaker::ViewMsg>(
      1, crypto::threshold_share(auth->signer_for(0), pacemaker::view_msg_statement(1)));
  // One send per destination, self included: Node::outbound_broadcast's path.
  for (auto _ : state) {
    for (ProcessId to = 0; to < n; ++to) network.send(0, to, msg);
    sim.run_until_idle();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NetworkBroadcast)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace lumiere

BENCHMARK_MAIN();
