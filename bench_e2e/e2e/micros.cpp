#include "e2e/micros.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "consensus/block.h"
#include "consensus/mempool.h"
#include "consensus/messages.h"
#include "consensus/quorum_cert.h"
#include "crypto/authenticator.h"
#include "dissem/messages.h"
#include "pacemaker/messages.h"
#include "sim/event_queue.h"
#include "sync/messages.h"

namespace lumiere::e2e {
namespace {

constexpr int kRepetitions = 5;
/// Decoding a proposal with a 4 KiB payload takes about 20 us.
constexpr int kCodecIterations = 2000;
const Duration kDelta = Duration::millis(10);

/// Keeps the compiler from discarding a result it could prove unused.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

/// Median over kRepetitions of the mean time of one op(i), in ns.
template <typename Op>
double median_ns(int iterations, Op&& op) {
  op(0);  // warm caches and lazy state
  std::vector<double> samples;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iterations; ++i) op(i);
    const auto stop = std::chrono::steady_clock::now();
    samples.push_back(
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start).count()) /
        iterations);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

consensus::QuorumCert make_qc(const crypto::Authenticator& auth, const ProtocolParams& params,
                              View view, const crypto::Digest& block_hash) {
  const crypto::Digest statement = consensus::QuorumCert::statement(view, block_hash);
  crypto::QuorumAggregator aggregator(crypto::AuthView(&auth), statement, params.quorum());
  for (ProcessId id = 0; id < params.quorum(); ++id) {
    aggregator.add(crypto::threshold_share(auth.signer_for(id), statement));
  }
  return consensus::QuorumCert(view, block_hash, aggregator.aggregate());
}

std::vector<std::uint8_t> filler(std::size_t bytes, std::uint8_t seed) {
  std::vector<std::uint8_t> out(bytes);
  for (std::size_t i = 0; i < bytes; ++i) out[i] = static_cast<std::uint8_t>(seed + i * 31);
  return out;
}

/// steady: the simulator's event queue under a standing backlog like a
/// busy simulation's, as schedule+pop pairs.
void event_queue_micro(Metrics& out) {
  sim::EventQueue queue;
  std::uint64_t state = 88172645463325252ULL;
  const auto next_delay = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return Duration(static_cast<std::int64_t>(state % 5000));
  };
  TimePoint now = TimePoint::origin();
  for (int i = 0; i < 1024; ++i) queue.post(now + next_delay(), [] {});
  TimePoint at;
  sim::EventFn fn;
  out.set("sim.schedule_pop_ns", median_ns(200000, [&](int) {
            queue.post(now + next_delay(), [] {});
            queue.pop(at, fn);
            now = at;
          }),
          "ns");
}

/// steady: a full HMAC QC check at n = 31 with no verification memo, the
/// check every replica runs on every proposal and new QC.
void qc_micro(Metrics& out, std::vector<Check>& checks) {
  const ProtocolParams params = ProtocolParams::for_n(31, kDelta, 4);
  const auto auth = crypto::make_authenticator("hmac", 31, 7);
  const consensus::QuorumCert qc = make_qc(*auth, params, 41, crypto::Sha256::hash("qc block"));
  bool ok = true;
  out.set("crypto.hmac_qc_verify_us_n31", median_ns(1000, [&](int) {
            ok = qc.verify(crypto::AuthView(auth.get()), params) && ok;
          }) / 1e3,
          "us");
  checks.push_back(Check{"micro_qc_verifies", ok, ok ? "" : "a valid QC failed to verify"});
}

/// tcp-ed25519: one ed25519 signature and one verification.
void ed25519_micros(const crypto::Authenticator& ed, Metrics& out, std::vector<Check>& checks) {
  const crypto::Signer signer = ed.signer_for(1);
  std::vector<crypto::Digest> messages;
  for (int i = 0; i < 64; ++i) messages.push_back(crypto::Sha256::hash("m" + std::to_string(i)));
  std::vector<crypto::Signature> sigs;
  for (const crypto::Digest& m : messages) sigs.push_back(signer.sign(m));
  out.set("crypto.ed25519_sign_us", median_ns(200, [&](int i) {
            keep(signer.sign(messages[static_cast<std::size_t>(i) % messages.size()]));
          }) / 1e3,
          "us");
  bool ok = true;
  out.set("crypto.ed25519_verify_us", median_ns(200, [&](int i) {
            const std::size_t k = static_cast<std::size_t>(i) % messages.size();
            ok = ed.verify(messages[k], sigs[k]) && ok;
          }) / 1e3,
          "us");
  checks.push_back(Check{"micro_ed25519_verifies", ok, ok ? "" : "a valid signature failed to verify"});
}

/// tcp-ed25519 (and faults, for batch_push): the wire codec on the four
/// messages that dominate TCP traffic, signed with ed25519 at n = 4.
void codec_micros(const crypto::Authenticator& ed, Metrics& out, std::vector<Check>& checks) {
  MessageCodec codec;
  consensus::register_consensus_messages(codec);
  pacemaker::register_pacemaker_messages(codec);
  dissem::register_dissem_messages(codec);
  sync::register_sync_messages(codec);
  codec.set_sig_wire(ed.wire_spec());

  const ProtocolParams params = ProtocolParams::for_n(4, kDelta, 4);
  const consensus::QuorumCert qc = make_qc(ed, params, 41, crypto::Sha256::hash("codec block"));
  const View view = qc.view() + 1;
  const consensus::Block block(qc.block_hash(), view, filler(4096, 3), qc);
  const crypto::Digest vote_statement = consensus::QuorumCert::statement(view, block.hash());
  const std::vector<std::pair<std::string, MessagePtr>> messages = {
      {"proposal", std::make_shared<consensus::ProposalMsg>(block)},
      {"vote", std::make_shared<consensus::VoteMsg>(
                   view, block.hash(), crypto::threshold_share(ed.signer_for(1), vote_statement))},
      {"view", std::make_shared<pacemaker::ViewMsg>(
                   view, crypto::threshold_share(ed.signer_for(2),
                                                 pacemaker::view_msg_statement(view)))},
      {"batch_push",
       std::make_shared<dissem::BatchPushMsg>(
           dissem::BatchId{3, 17, crypto::Sha256::hash("batch")}, filler(4096, 9))},
  };
  std::vector<std::uint8_t> buffer;
  for (const auto& [name, msg] : messages) {
    out.set("ser.encode_ns." + name, median_ns(kCodecIterations, [&](int) {
              MessageCodec::encode_into(*msg, buffer);
              keep(buffer);
            }),
            "ns");
    MessageCodec::encode_into(*msg, buffer);
    const std::vector<std::uint8_t> frame = buffer;
    bool decoded = true;
    out.set("ser.decode_ns." + name, median_ns(kCodecIterations, [&](int) {
              decoded = codec.decode(frame) != nullptr && decoded;
            }),
            "ns");
    checks.push_back(Check{"micro_decodes_" + name, decoded, decoded ? "" : "frame failed to decode"});
  }
}

/// steady: one proposal's worth of mempool work per iteration — admit a
/// 4 KiB batch of 64-byte requests, lease it for a view, then observe its
/// commit — reported per request.
void mempool_micro(Metrics& out) {
  consensus::MempoolLimits limits;
  limits.max_batch_bytes = 4096;
  limits.suppress_duplicates = true;
  consensus::Mempool pool(limits);
  constexpr std::size_t kPerBatch = 4096 / (64 + 4);
  std::vector<std::vector<std::uint8_t>> commands;
  for (std::size_t i = 0; i < kPerBatch; ++i) {
    commands.push_back(filler(64, static_cast<std::uint8_t>(i)));
    commands.back()[0] = static_cast<std::uint8_t>(i);
  }
  View view = 0;
  const double per_batch = median_ns(200, [&](int) {
    for (const auto& command : commands) keep(pool.add(command));
    ++view;
    const std::vector<std::uint8_t> payload = pool.next_batch(view);
    pool.on_commit(view, payload);
  });
  out.set("mempool.add_lease_commit_ns", per_batch / static_cast<double>(kPerBatch), "ns");
}

}  // namespace

void run_micros(Metrics& out, std::vector<Check>& checks) {
  const auto ed = crypto::make_authenticator("ed25519", 4, 7);
  event_queue_micro(out);
  qc_micro(out, checks);
  ed25519_micros(*ed, out, checks);
  codec_micros(*ed, out, checks);
  mempool_micro(out);
}

}  // namespace lumiere::e2e
