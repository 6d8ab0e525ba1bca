// The data-dissemination layer (src/dissem/): batch identity and PoA
// certificates, the refs payload encoding, the Disseminator's message
// protocol driven deterministically through injected callbacks, and the
// layer end to end under consensus on the simulator — including the
// acceptance property that proposal wire size is independent of batch
// payload size once proposals order references instead of bytes.
#include <gtest/gtest.h>

#include <memory>

#include "crypto/authenticator.h"

#include <map>
#include <set>
#include <vector>

#include "dissem/disseminator.h"
#include "runtime/cluster.h"
#include "workload/engine.h"
#include "workload/report.h"

namespace lumiere::dissem {
namespace {

using runtime::Cluster;
using runtime::ScenarioBuilder;

std::vector<std::uint8_t> bytes_of(std::size_t size, std::uint8_t fill) {
  return std::vector<std::uint8_t>(size, fill);
}

BatchId id_for(ProcessId origin, std::uint64_t seq, const std::vector<std::uint8_t>& payload) {
  return BatchId{origin, seq,
                 crypto::Sha256::hash(
                     std::span<const std::uint8_t>(payload.data(), payload.size()))};
}

crypto::ThresholdSig aggregate_for(const crypto::Authenticator& auth, const BatchId& id,
                                   std::uint32_t m) {
  crypto::QuorumAggregator agg(crypto::AuthView(&auth), batch_statement(id), m);
  for (ProcessId signer = 0; signer < m; ++signer) {
    agg.add(crypto::threshold_share(auth.signer_for(signer), batch_statement(id)));
  }
  return agg.aggregate();
}

// ---- batch identity and certificates ---------------------------------

TEST(BatchTest, StatementBindsTheFullIdentity) {
  const auto payload = bytes_of(16, 0x11);
  const BatchId base = id_for(1, 7, payload);
  BatchId other_origin = base;
  other_origin.origin = 2;
  BatchId other_seq = base;
  other_seq.seq = 8;
  BatchId other_digest = base;
  other_digest.digest = crypto::Sha256::hash("different bytes");
  EXPECT_NE(batch_statement(base), batch_statement(other_origin));
  EXPECT_NE(batch_statement(base), batch_statement(other_seq));
  EXPECT_NE(batch_statement(base), batch_statement(other_digest));
}

TEST(BatchTest, CertVerifiesAndRejectsForgeries) {
  const ProtocolParams params = ProtocolParams::for_n(4, Duration::millis(10));
  const auto auth_owner = crypto::make_authenticator(crypto::kDefaultScheme, 4, 17);
  const crypto::Authenticator& auth = *auth_owner;
  const auto payload = bytes_of(32, 0x22);
  const BatchId id = id_for(0, 1, payload);
  const BatchCert cert(id, aggregate_for(auth, id, params.small_quorum()));
  EXPECT_TRUE(cert.verify(crypto::AuthView(&auth), params));

  // The aggregate is bound to the identity: the same signature presented
  // for a different batch must not verify.
  BatchId other = id;
  other.seq = 2;
  const BatchCert transplanted(other, cert.sig());
  EXPECT_FALSE(transplanted.verify(crypto::AuthView(&auth), params));

  // Fewer than f+1 signers is no proof of availability.
  const BatchCert thin(id, aggregate_for(auth, id, 1));
  EXPECT_FALSE(thin.verify(crypto::AuthView(&auth), params));
}

TEST(BatchTest, CertSerializationRoundTrips) {
  const ProtocolParams params = ProtocolParams::for_n(4, Duration::millis(10));
  const auto auth_owner = crypto::make_authenticator(crypto::kDefaultScheme, 4, 18);
  const crypto::Authenticator& auth = *auth_owner;
  const auto payload = bytes_of(24, 0x33);
  const BatchId id = id_for(3, 9, payload);
  const BatchCert cert(id, aggregate_for(auth, id, params.small_quorum()));
  ser::Writer w;
  cert.serialize(w);
  const std::vector<std::uint8_t> wire = std::move(w).take();
  ser::Reader r(std::span<const std::uint8_t>(wire.data(), wire.size()));
  const auto back = BatchCert::deserialize(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(*back, cert);
  EXPECT_TRUE(back->verify(crypto::AuthView(&auth), params));
}

// ---- refs payload encoding -------------------------------------------

TEST(RefsPayloadTest, EncodeDecodeRoundTripAndMalformedRejection) {
  const ProtocolParams params = ProtocolParams::for_n(4, Duration::millis(10));
  const auto auth_owner = crypto::make_authenticator(crypto::kDefaultScheme, 4, 19);
  const crypto::Authenticator& auth = *auth_owner;
  std::vector<BatchCert> refs;
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    const auto payload = bytes_of(16 * seq, static_cast<std::uint8_t>(seq));
    const BatchId id = id_for(1, seq, payload);
    refs.emplace_back(id, aggregate_for(auth, id, params.small_quorum()));
  }

  EXPECT_TRUE(encode_refs({}).empty()) << "an empty proposal stays empty on the wire";
  const std::vector<std::uint8_t> payload = encode_refs(refs);
  ASSERT_TRUE(is_refs_payload(std::span<const std::uint8_t>(payload.data(), payload.size())));
  const auto decoded =
      decode_refs(std::span<const std::uint8_t>(payload.data(), payload.size()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, refs);

  // A legacy inline batch can never parse as refs: command length
  // prefixes are bounded by the batch byte budget, far below the magic.
  const std::vector<std::uint8_t> legacy = {4, 0, 0, 0, 'a', 'b', 'c', 'd'};
  EXPECT_FALSE(is_refs_payload(std::span<const std::uint8_t>(legacy.data(), legacy.size())));
  EXPECT_FALSE(decode_refs(std::span<const std::uint8_t>(legacy.data(), legacy.size())));

  // Truncation, trailing garbage and a lying count all decode to nullopt.
  auto truncated = payload;
  truncated.resize(truncated.size() - 5);
  EXPECT_FALSE(
      decode_refs(std::span<const std::uint8_t>(truncated.data(), truncated.size())));
  auto padded = payload;
  padded.push_back(0);
  EXPECT_FALSE(decode_refs(std::span<const std::uint8_t>(padded.data(), padded.size())));
  auto lying = payload;
  lying[4] = 200;  // count field claims far more certs than the bytes hold
  EXPECT_FALSE(decode_refs(std::span<const std::uint8_t>(lying.data(), lying.size())));
}

TEST(RefsPayloadTest, EncodingSizeIndependentOfBatchPayloadSize) {
  // The acceptance property at the encoding level: a reference to a
  // 16-byte batch and a reference to a 16-KiB batch occupy identical
  // wire bytes — the payload never rides in the proposal.
  const ProtocolParams params = ProtocolParams::for_n(4, Duration::millis(10));
  const auto auth_owner = crypto::make_authenticator(crypto::kDefaultScheme, 4, 20);
  const crypto::Authenticator& auth = *auth_owner;
  const auto small = bytes_of(16, 0x01);
  const auto large = bytes_of(16 * 1024, 0x02);
  const BatchId small_id = id_for(0, 1, small);
  const BatchId large_id = id_for(0, 2, large);
  const std::vector<BatchCert> small_refs = {
      BatchCert(small_id, aggregate_for(auth, small_id, params.small_quorum()))};
  const std::vector<BatchCert> large_refs = {
      BatchCert(large_id, aggregate_for(auth, large_id, params.small_quorum()))};
  EXPECT_EQ(encode_refs(small_refs).size(), encode_refs(large_refs).size());
}

// ---- the Disseminator protocol, driven deterministically --------------

/// A Disseminator wired to a recording harness: sends, broadcasts,
/// scheduled timers and deliveries are captured; timers run only when
/// the test fires them, so every interleaving is explicit.
struct Harness {
  static constexpr std::uint32_t kN = 4;  // f = 1, small quorum = 2

  struct Sent {
    ProcessId to;  ///< kNoProcess = broadcast
    MessagePtr msg;
  };

  ProtocolParams params = ProtocolParams::for_n(kN, Duration::millis(10));
  std::unique_ptr<crypto::Authenticator> auth_owner =
      crypto::make_authenticator(crypto::kDefaultScheme, kN, 23);
  const crypto::Authenticator& auth = *auth_owner;
  std::vector<Sent> sent;
  std::vector<std::function<void()>> timers;
  std::vector<std::vector<std::uint8_t>> delivered;
  std::vector<std::uint64_t> acked_tokens;
  TimePoint now = TimePoint::origin();
  Disseminator engine;

  explicit Harness(ProcessId self, DissemSpec spec = {})
      : engine(params, crypto::AuthView(&auth), auth.signer_for(self), spec, callbacks()) {}

  DisseminatorCallbacks callbacks() {
    DisseminatorCallbacks cb;
    cb.send = [this](ProcessId to, MessagePtr msg) { sent.push_back({to, std::move(msg)}); };
    cb.broadcast = [this](MessagePtr msg) { sent.push_back({kNoProcess, std::move(msg)}); };
    cb.schedule = [this](Duration, std::function<void()> fn) {
      timers.push_back(std::move(fn));
    };
    cb.now = [this] { return now; };
    cb.lease_batch = [](std::vector<std::uint8_t>&) { return std::uint64_t{0}; };
    cb.ack_batch = [this](std::uint64_t token) { acked_tokens.push_back(token); };
    cb.deliver = [this](TimePoint, const std::vector<std::uint8_t>& payload) {
      delivered.push_back(payload);
    };
    return cb;
  }

  [[nodiscard]] std::size_t count_sent(std::uint32_t type_id, ProcessId to) const {
    std::size_t count = 0;
    for (const Sent& s : sent) {
      if (s.msg->type_id() == type_id && s.to == to) ++count;
    }
    return count;
  }

  [[nodiscard]] BatchCert cert_for(const BatchId& id) const {
    return BatchCert(id, aggregate_for(auth, id, params.small_quorum()));
  }

  /// Fires every currently scheduled timer once (reinsert nets etc.).
  void fire_timers() {
    std::vector<std::function<void()>> due;
    due.swap(timers);
    for (auto& fn : due) fn();
  }
};

TEST(DisseminatorTest, StoresPushesAcksOriginsAndServesFetches) {
  Harness h(/*self=*/2);
  const auto payload = bytes_of(40, 0x44);
  const BatchId id = id_for(0, 1, payload);

  h.engine.on_message(0, std::make_shared<BatchPushMsg>(id, payload));
  ASSERT_NE(h.engine.payload_of(id), nullptr);
  EXPECT_EQ(*h.engine.payload_of(id), payload);
  EXPECT_EQ(h.count_sent(kBatchAck, /*to=*/0), 1U) << "a stored push earns the origin an ack";

  // A push whose digest does not bind its bytes must be ignored — acking
  // it would help certify a batch this node cannot serve.
  BatchId forged = id;
  forged.seq = 2;
  h.engine.on_message(0, std::make_shared<BatchPushMsg>(forged, bytes_of(8, 0x55)));
  EXPECT_EQ(h.engine.payload_of(forged), nullptr);
  EXPECT_EQ(h.count_sent(kBatchAck, /*to=*/0), 1U);

  // A stored batch is served to any fetching replica.
  h.engine.on_message(1, std::make_shared<BatchFetchMsg>(id));
  EXPECT_EQ(h.count_sent(kBatchPush, /*to=*/1), 1U);
  EXPECT_EQ(h.engine.fetches_served(), 1U);

  // Unknown batches are not served (nothing to serve).
  const BatchId unknown = id_for(1, 9, bytes_of(4, 0x66));
  h.engine.on_message(1, std::make_shared<BatchFetchMsg>(unknown));
  EXPECT_EQ(h.count_sent(kBatchPush, /*to=*/1), 1U);
}

TEST(DisseminatorTest, CertsQueueDrainIntoProposalsAndGateVotes) {
  Harness h(/*self=*/2);
  const auto payload = bytes_of(64, 0x77);
  const BatchId id = id_for(0, 1, payload);
  const BatchCert cert = h.cert_for(id);

  h.engine.on_message(0, std::make_shared<BatchCertMsg>(cert));
  EXPECT_EQ(h.engine.certified_depth(), 1U);

  // Vote gate: empty and verified-refs payloads pass; raw bytes and
  // tampered certs do not.
  const std::vector<std::uint8_t> refs_payload = encode_refs({cert});
  EXPECT_TRUE(h.engine.refs_payload_ok({}));
  EXPECT_TRUE(h.engine.refs_payload_ok(
      std::span<const std::uint8_t>(refs_payload.data(), refs_payload.size())));
  const std::vector<std::uint8_t> raw = {9, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_FALSE(h.engine.refs_payload_ok(std::span<const std::uint8_t>(raw.data(), raw.size())));
  BatchId forged_id = id;
  forged_id.seq = 99;
  const std::vector<std::uint8_t> forged =
      encode_refs({BatchCert(forged_id, cert.sig())});  // sig binds another batch
  EXPECT_FALSE(
      h.engine.refs_payload_ok(std::span<const std::uint8_t>(forged.data(), forged.size())));

  // The queued cert drains into exactly one proposal payload.
  const std::vector<std::uint8_t> proposal = h.engine.make_proposal_payload(1);
  EXPECT_EQ(proposal, refs_payload);
  EXPECT_EQ(h.engine.certified_depth(), 0U);
  EXPECT_TRUE(h.engine.make_proposal_payload(2).empty());

  // The reinsert net: unordered after the timeout -> queued again;
  // ordered -> the timer is a no-op.
  h.fire_timers();
  EXPECT_EQ(h.engine.certified_depth(), 1U);
  EXPECT_EQ(h.engine.refs_reinserted(), 1U);
}

TEST(DisseminatorTest, SeeingARefProposedWithholdsItFromOwnProposals) {
  Harness h(/*self=*/2);
  const auto payload = bytes_of(32, 0x88);
  const BatchId id = id_for(1, 4, payload);
  const BatchCert cert = h.cert_for(id);
  h.engine.on_message(1, std::make_shared<BatchCertMsg>(cert));
  EXPECT_EQ(h.engine.certified_depth(), 1U);

  const std::vector<std::uint8_t> refs_payload = encode_refs({cert});
  h.engine.on_refs_proposed(
      std::span<const std::uint8_t>(refs_payload.data(), refs_payload.size()));
  EXPECT_EQ(h.engine.certified_depth(), 0U) << "a ref in flight is withheld";
  EXPECT_TRUE(h.engine.make_proposal_payload(3).empty());

  // An unknown cert in a (possibly Byzantine) proposal must not enter
  // the reinsert path unvetted.
  const BatchId foreign = id_for(3, 8, bytes_of(8, 0x99));
  const std::vector<std::uint8_t> foreign_payload = encode_refs({h.cert_for(foreign)});
  h.engine.on_refs_proposed(
      std::span<const std::uint8_t>(foreign_payload.data(), foreign_payload.size()));
  h.fire_timers();
  EXPECT_EQ(h.engine.certified_depth(), 1U) << "only the withheld ref reinserts";
}

TEST(DisseminatorTest, FetchOnMissResolvesAndDeliversExactlyOnce) {
  Harness h(/*self=*/2);
  const auto payload = bytes_of(48, 0xAA);
  const BatchId id = id_for(0, 1, payload);
  const BatchCert cert = h.cert_for(id);
  const std::vector<std::uint8_t> refs_payload = encode_refs({cert});

  // Committing a reference this node never stored: no delivery yet, one
  // fetch to every cert signer (at least one of the f+1 is honest).
  h.engine.on_committed_payload(
      std::span<const std::uint8_t>(refs_payload.data(), refs_payload.size()));
  EXPECT_TRUE(h.delivered.empty());
  EXPECT_EQ(h.engine.unresolved_count(), 1U);
  EXPECT_EQ(h.count_sent(kBatchFetch, /*to=*/0), 1U);
  EXPECT_EQ(h.count_sent(kBatchFetch, /*to=*/1), 1U);

  // The fetch response is an ordinary push: it resolves the reference
  // and delivers the batch.
  h.engine.on_message(0, std::make_shared<BatchPushMsg>(id, payload));
  EXPECT_EQ(h.engine.unresolved_count(), 0U);
  ASSERT_EQ(h.delivered.size(), 1U);
  EXPECT_EQ(h.delivered.front(), payload);
  EXPECT_EQ(h.engine.batches_delivered(), 1U);

  // Re-committing the same reference (reinsert + pipelined chains make
  // this legal) must not deliver twice.
  h.engine.on_committed_payload(
      std::span<const std::uint8_t>(refs_payload.data(), refs_payload.size()));
  EXPECT_EQ(h.delivered.size(), 1U);
}

// ---- end to end under consensus ---------------------------------------

ScenarioBuilder dissem_cluster(std::uint64_t seed, std::size_t request_bytes) {
  workload::WorkloadSpec spec;
  spec.arrival = workload::Arrival::kConstant;
  spec.clients_per_node = 1;
  spec.rate_per_client = 150.0;
  spec.request_bytes = request_bytes;
  spec.mempool.max_pending_count = 256;
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(4, Duration::millis(10), /*x=*/4));
  builder.pacemaker("lumiere");
  builder.core("chained-hotstuff");
  builder.seed(seed);
  builder.delay(std::make_shared<sim::FixedDelay>(Duration::micros(500)));
  builder.workload(spec);
  builder.dissemination();
  return builder;
}

/// Per-reference wire bytes of every committed refs payload in `cluster`
/// (all entries must be refs payloads or empty once dissemination is on).
std::set<std::size_t> committed_ref_sizes(const Cluster& cluster) {
  std::set<std::size_t> sizes;
  for (ProcessId id = 0; id < 4; ++id) {
    for (const auto& entry : cluster.node(id).ledger().entries()) {
      if (entry.payload.empty()) continue;
      const std::span<const std::uint8_t> span = entry.payload;
      EXPECT_TRUE(is_refs_payload(span)) << "a dissem-on proposal carried inline bytes";
      const auto refs = decode_refs(span);
      if (!refs) continue;
      // [magic][count] header is 8 bytes; the rest is count x one ref.
      sizes.insert((entry.payload.size() - 8) / refs->size());
    }
  }
  return sizes;
}

TEST(DissemClusterTest, CommitsDeliverExactlyOnceWithCertifiedBatches) {
  Cluster cluster(dissem_cluster(31, /*request_bytes=*/64));
  cluster.run_for(Duration::seconds(8));

  const workload::Report report = cluster.workload_report();
  EXPECT_GT(report.committed, 100U);
  EXPECT_EQ(report.commit_misses, 0U);
  EXPECT_EQ(report.committed + report.outstanding, report.admitted)
      << "every admitted request committed or is still in flight — never lost";

  const runtime::MetricsCollector& metrics = cluster.metrics();
  EXPECT_GT(metrics.batches_certified(), 0U);
  EXPECT_GT(metrics.batch_acks(), 0U);
  EXPECT_GT(metrics.dissem_bytes(), 0U);
  EXPECT_TRUE(metrics.batch_cert_latency_percentile(0.5).has_value());
  EXPECT_FALSE(metrics.certified_depth_log().empty());

  for (ProcessId id = 0; id < 4; ++id) {
    const Disseminator* engine = cluster.node(id).disseminator();
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->unresolved_count(), 0U)
        << "node " << id << " ended with committed references it never resolved";
    EXPECT_GT(engine->batches_delivered(), 0U);
  }
}

TEST(DissemClusterTest, ProposalWireSizeIndependentOfBatchPayloadSize) {
  // Two identical clusters except for the request size (64B vs 2KiB):
  // committed proposals must spend identical wire bytes per reference —
  // the payload bytes ride BatchPush, never the proposal.
  Cluster small(dissem_cluster(32, /*request_bytes=*/64));
  small.run_for(Duration::seconds(6));
  Cluster large(dissem_cluster(32, /*request_bytes=*/2048));
  large.run_for(Duration::seconds(6));

  const std::set<std::size_t> small_sizes = committed_ref_sizes(small);
  const std::set<std::size_t> large_sizes = committed_ref_sizes(large);
  ASSERT_FALSE(small_sizes.empty());
  ASSERT_FALSE(large_sizes.empty());
  EXPECT_EQ(small_sizes, large_sizes);

  // And the constant matches the encoding: one serialized f+1 cert.
  const auto auth_owner = crypto::make_authenticator(crypto::kDefaultScheme, 4, 23);
  const crypto::Authenticator& auth = *auth_owner;
  const ProtocolParams params = ProtocolParams::for_n(4, Duration::millis(10));
  const BatchId id = id_for(0, 1, bytes_of(8, 0x01));
  ser::Writer w;
  BatchCert(id, aggregate_for(auth, id, params.small_quorum())).serialize(w);
  EXPECT_EQ(*small_sizes.begin(), w.size());
  EXPECT_EQ(small_sizes.size(), 1U) << "references are fixed-size";
}

TEST(DissemClusterTest, BacklogRidesAQuorumPreservingPartition) {
  // {0,1,2} keeps the 2f+1 = 3 quorum, node 3 is cut off for two
  // seconds. Batches certified by the majority keep committing; node 3
  // resolves everything it committed by the end (push replay or fetch).
  ScenarioBuilder builder = dissem_cluster(33, /*request_bytes=*/64);
  builder.partition({{0, 1, 2}, {3}}, TimePoint(Duration::seconds(2).ticks()));
  builder.heal(TimePoint(Duration::seconds(4).ticks()));
  Cluster cluster(builder);
  cluster.run_for(Duration::seconds(9));

  EXPECT_GT(cluster.metrics().requests_between(
                TimePoint(Duration::seconds(2).ticks()) + Duration::millis(10),
                TimePoint(Duration::seconds(4).ticks())),
            0U)
      << "the majority side must keep committing requests through the cut";
  const workload::Report report = cluster.workload_report();
  EXPECT_EQ(report.commit_misses, 0U);
  for (ProcessId id = 0; id < 4; ++id) {
    ASSERT_NE(cluster.node(id).disseminator(), nullptr);
    EXPECT_EQ(cluster.node(id).disseminator()->unresolved_count(), 0U) << "node " << id;
  }
}

}  // namespace
}  // namespace lumiere::dissem
