// The data-dissemination layer (src/dissem/): batch identity and PoA
// certificates, the refs payload encoding, the Disseminator's message
// protocol driven deterministically through injected callbacks, and the
// layer end to end under consensus on the simulator — including the
// acceptance property that proposal wire size is independent of batch
// payload size once proposals order references instead of bytes.
#include <gtest/gtest.h>

#include <memory>

#include "crypto/authenticator.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "dissem/disseminator.h"
#include "fuzz/oracles.h"
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
  struct Sent {
    ProcessId to;  ///< kNoProcess = broadcast
    MessagePtr msg;
    TimePoint at;
  };
  struct Timer {
    TimePoint due;
    std::function<void()> fn;
  };

  ProcessId self;
  ProtocolParams params;
  std::unique_ptr<crypto::Authenticator> auth_owner;
  const crypto::Authenticator& auth;
  std::vector<Sent> sent;
  std::vector<Timer> timers;
  std::deque<std::vector<std::uint8_t>> leases;  ///< payloads lease_batch hands out
  std::uint64_t leased = 0;
  std::vector<std::vector<std::uint8_t>> delivered;
  std::vector<std::uint64_t> acked_tokens;
  TimePoint now = TimePoint::origin();
  /// Who proposes next, asked at each announce; the peer after this node
  /// unless a test sets it.
  std::function<ProcessId()> next_proposer = [this] { return (self + 1) % params.n; };
  Disseminator engine;

  /// n = 4 by default: f = 1, small quorum = 2.
  explicit Harness(ProcessId self_id, std::uint32_t n = 4)
      : self(self_id),
        params(ProtocolParams::for_n(n, Duration::millis(10))),
        auth_owner(crypto::make_authenticator(crypto::kDefaultScheme, n, 23)),
        auth(*auth_owner),
        engine(params, crypto::AuthView(&auth), auth.signer_for(self_id), callbacks()) {}

  DisseminatorCallbacks callbacks() {
    DisseminatorCallbacks cb;
    cb.send = [this](ProcessId to, MessagePtr msg) { sent.push_back({to, std::move(msg), now}); };
    cb.broadcast = [this](MessagePtr msg) {
      sent.push_back({kNoProcess, std::move(msg), now});
    };
    cb.schedule = [this](Duration delay, std::function<void()> fn) {
      timers.push_back({now + delay, std::move(fn)});
    };
    cb.now = [this] { return now; };
    cb.next_proposer = [this] { return next_proposer(); };
    cb.lease_batch = [this](std::vector<std::uint8_t>& payload) {
      if (leases.empty()) return std::uint64_t{0};
      payload = std::move(leases.front());
      leases.pop_front();
      return ++leased;
    };
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
    std::vector<Timer> due;
    due.swap(timers);
    for (Timer& timer : due) timer.fn();
  }

  /// Advances the clock to `end`, firing timers in due order (ties in
  /// scheduling order), including the ones they schedule.
  void run_until(TimePoint end) {
    for (;;) {
      const auto next = std::min_element(
          timers.begin(), timers.end(),
          [](const Timer& a, const Timer& b) { return a.due < b.due; });
      if (next == timers.end() || next->due > end) break;
      now = next->due;
      const std::function<void()> fn = std::move(next->fn);
      timers.erase(next);
      fn();
    }
    now = end;
  }

  /// Ids of the batches this node pushed so far (as origin), in order.
  [[nodiscard]] std::vector<BatchId> pushed_ids() const {
    std::vector<BatchId> ids;
    for (const Sent& s : sent) {
      if (s.msg->type_id() == kBatchPush && s.to == kNoProcess) {
        ids.push_back(static_cast<const BatchPushMsg&>(*s.msg).id());
      }
    }
    return ids;
  }

  /// Delivers `signer`'s availability ack for `id` to the engine.
  void ack_from(ProcessId signer, const BatchId& id) {
    engine.on_message(signer, std::make_shared<BatchAckMsg>(
                                  id, crypto::threshold_share(auth.signer_for(signer),
                                                              batch_statement(id))));
  }

  /// The cert announces carrying `id`, in send order.
  [[nodiscard]] std::vector<Sent> announces_of(const BatchId& id) const {
    std::vector<Sent> announces;
    for (const Sent& s : sent) {
      if (s.msg->type_id() != kBatchCertAnnounce) continue;
      for (const BatchCert& cert : static_cast<const BatchCertMsg&>(*s.msg).certs()) {
        if (cert.id() == id) announces.push_back(s);
      }
    }
    return announces;
  }

  /// Times at which a cert announce carrying `id` was sent.
  [[nodiscard]] std::vector<TimePoint> announce_times_of(const BatchId& id) const {
    std::vector<TimePoint> times;
    for (const Sent& s : announces_of(id)) times.push_back(s.at);
    return times;
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

// ---- the retry path: targeted re-push, backed-off re-announce ----------

/// Starts `h`, lets its first push tick lease the queued payloads and
/// returns the pushed ids (each still short of its f+1 acks).
std::vector<BatchId> push_leases(Harness& h) {
  h.engine.start();
  h.run_until(TimePoint::origin() + kPushInterval);
  return h.pushed_ids();
}

TEST(DisseminatorRetryTest, RePushGoesOnlyToPeersWhoseAckIsMissing) {
  // n = 7: the small quorum is 3, so one peer ack leaves the batch
  // pending with two signers (self and peer 0).
  Harness h(/*self=*/2, /*n=*/7);
  h.leases.push_back(bytes_of(40, 0x12));
  const std::vector<BatchId> ids = push_leases(h);
  ASSERT_EQ(ids.size(), 1U);
  h.ack_from(0, ids.front());
  h.sent.clear();

  // The 50 ms tick finds the push 48 ms old; the 100 ms tick re-pushes.
  h.run_until(TimePoint::origin() + kRetryInterval * 2);
  EXPECT_EQ(h.count_sent(kBatchPush, kNoProcess), 0U) << "no full re-broadcast";
  EXPECT_EQ(h.count_sent(kBatchPush, 0), 0U) << "peer 0 acked: it stores the bytes";
  EXPECT_EQ(h.count_sent(kBatchPush, 2), 0U) << "the origin is its own first signer";
  for (const ProcessId peer : {1U, 3U, 4U, 5U, 6U}) {
    EXPECT_EQ(h.count_sent(kBatchPush, peer), 1U) << "peer " << peer;
  }
}

TEST(DisseminatorRetryTest, RePushGapsBackOffUpToTheCap) {
  // No peer ever acks: the batch is re-pushed on the re-announce
  // schedule — first a retry interval after the push, then gaps that
  // double and stop growing at 4 x retry_interval.
  Harness h(/*self=*/2);
  h.leases.push_back(bytes_of(40, 0x17));
  ASSERT_EQ(push_leases(h).size(), 1U);
  const TimePoint pushed_at = h.sent.front().at;
  h.run_until(pushed_at + Duration::seconds(2));

  std::vector<TimePoint> repushes;
  for (const Harness::Sent& s : h.sent) {
    if (s.msg->type_id() == kBatchPush && s.to == 1) repushes.push_back(s.at);
  }
  ASSERT_GE(repushes.size(), 3U) << "the re-push stays a liveness net";
  EXPECT_LE(repushes.size(), 12U) << "re-pushes back off (one per tick would be 39)";
  EXPECT_GE(repushes.front() - pushed_at, kRetryInterval)
      << "the first re-push waits a full retry interval";
  for (std::size_t i = 1; i < repushes.size(); ++i) {
    const Duration gap = repushes[i] - repushes[i - 1];
    EXPECT_LE(gap, kRetryInterval * 4) << "re-push " << i << " waited past the cap";
    if (i >= 2) {
      EXPECT_GE(gap, repushes[i - 1] - repushes[i - 2]) << "re-push gaps never shrink";
    }
  }
}

TEST(DisseminatorRetryTest, FreshCertGoesOnlyToTheNextProposer) {
  Harness h(/*self=*/2);
  h.next_proposer = [] { return ProcessId{1}; };
  h.leases.push_back(bytes_of(40, 0x18));
  const BatchId id = push_leases(h).at(0);
  h.sent.clear();
  h.ack_from(0, id);  // f+1 = 2 signers: certified now
  EXPECT_EQ(h.engine.batches_certified(), 1U);

  EXPECT_EQ(h.count_sent(kBatchCertAnnounce, 1), 1U);
  for (const ProcessId other : {ProcessId{0}, ProcessId{2}, ProcessId{3}, kNoProcess}) {
    EXPECT_EQ(h.count_sent(kBatchCertAnnounce, other), 0U) << "to " << other;
  }
  const std::vector<Harness::Sent> announces = h.announces_of(id);
  ASSERT_EQ(announces.size(), 1U);
  EXPECT_EQ(static_cast<const BatchCertMsg&>(*announces.front().msg).certs().size(), 1U);
  EXPECT_EQ(h.engine.certified_depth(), 1U) << "the origin queues its own cert too";
}

TEST(DisseminatorRetryTest, OriginThatProposesNextSendsNoAnnounce) {
  Harness h(/*self=*/2);
  h.next_proposer = [] { return ProcessId{2}; };
  h.leases.push_back(bytes_of(40, 0x19));
  const BatchId id = push_leases(h).at(0);
  h.ack_from(0, id);
  EXPECT_EQ(h.engine.batches_certified(), 1U);
  EXPECT_TRUE(h.announces_of(id).empty()) << "its own queue already holds the cert";
  EXPECT_EQ(h.engine.certified_depth(), 1U);
  const auto refs = decode_refs(h.engine.make_proposal_payload(1));
  ASSERT_TRUE(refs.has_value());
  ASSERT_EQ(refs->size(), 1U);
  EXPECT_EQ(refs->front().id(), id);
}

TEST(DisseminatorRetryTest, UnorderedCertReannouncesBackOff) {
  Harness h(/*self=*/2);
  h.leases.push_back(bytes_of(40, 0x21));
  const BatchId id = push_leases(h).at(0);
  h.ack_from(0, id);  // f+1 = 2 signers: certified now
  const TimePoint certified_at = h.now;
  EXPECT_EQ(h.engine.batches_certified(), 1U);

  // Nothing commits for a second.
  h.run_until(certified_at + Duration::seconds(1));
  const std::vector<TimePoint> announces = h.announce_times_of(id);
  ASSERT_FALSE(announces.empty());
  EXPECT_EQ(announces.front(), certified_at) << "announced once, fresh";
  ASSERT_GE(announces.size(), 2U) << "the re-announce stays a liveness net";
  EXPECT_LE(announces.size() - 1, 7U) << "re-announces back off (one per tick would be 20)";
  EXPECT_GE(announces[1] - certified_at, kRetryInterval)
      << "the first re-announce waits a full retry interval";
  for (std::size_t i = 2; i < announces.size(); ++i) {
    EXPECT_GE(announces[i] - announces[i - 1], announces[i - 1] - announces[i - 2])
        << "gaps never shrink";
  }
  for (const Harness::Sent& s : h.announces_of(id)) {
    EXPECT_EQ(s.to, h.next_proposer()) << "each announce goes to the next proposer only";
  }

  // Once ordered, the cert is never announced again.
  h.engine.on_committed_payload(encode_refs({h.cert_for(id)}));
  const std::size_t before = h.announces_of(id).size();
  h.run_until(h.now + Duration::seconds(1));
  EXPECT_EQ(h.announces_of(id).size(), before);
}

TEST(DisseminatorRetryTest, PeerBackFromDowntimeHearsCertWithinTheCapPlusATick) {
  // A proposer that missed the fresh announce (it was crashed, cut off,
  // or not yet next) learns the unordered cert from the next re-announce
  // made while it proposes next: the capped backoff bounds that wait by
  // 4 x retry_interval plus one tick of quantization. The proposer
  // rotates over the peers here, and every re-announce must reach the
  // one that proposes next at its tick.
  Harness h(/*self=*/2);
  const auto proposer_at = [](TimePoint t) {
    constexpr ProcessId kPeers[] = {0, 1, 3};
    return kPeers[((t - TimePoint::origin()).ticks() / Duration::millis(70).ticks()) % 3];
  };
  h.next_proposer = [&h, proposer_at] { return proposer_at(h.now); };
  h.leases.push_back(bytes_of(40, 0x31));
  const BatchId id = push_leases(h).at(0);
  h.ack_from(0, id);
  const TimePoint certified_at = h.now;
  const Duration bound = kRetryInterval * 4 + kRetryInterval;
  h.run_until(certified_at + Duration::seconds(3) + bound);

  for (const Harness::Sent& s : h.announces_of(id)) {
    EXPECT_EQ(s.to, proposer_at(s.at)) << "announce at " << s.at;
  }
  const std::vector<TimePoint> announces = h.announce_times_of(id);
  for (TimePoint back = certified_at + Duration::millis(1);
       back <= certified_at + Duration::seconds(3); back += Duration::millis(1)) {
    const auto heard = std::lower_bound(announces.begin(), announces.end(), back);
    ASSERT_NE(heard, announces.end()) << "proposer back at " << back << " never hears the cert";
    ASSERT_LE(*heard - back, bound) << "proposer back at " << back;
  }
}

/// Push ticks that lease 100 batches at kMaxBatchesPerTick each.
constexpr std::int64_t kHundredTicks = 100 / kMaxBatchesPerTick;
static_assert(kHundredTicks * kMaxBatchesPerTick == 100);
static_assert(kPushInterval * kHundredTicks <= kRetryInterval,
              "the last batch must certify before the first re-announce falls due");

/// Starts `h` with 100 own batches and certifies each push tick's batches
/// as they leave, so no more than one tick's worth awaits certification.
/// The last tick is at 50 ms, so every cert falls due on the 100 ms retry
/// tick. Returns their ids.
std::vector<BatchId> certify_hundred(Harness& h) {
  for (std::uint8_t i = 0; i < 100; ++i) h.leases.push_back(bytes_of(16, i));
  h.engine.start();
  std::vector<BatchId> ids;
  for (std::int64_t tick = 1; tick <= kHundredTicks; ++tick) {
    h.run_until(TimePoint::origin() + kPushInterval * tick);
    const std::vector<BatchId> pushed = h.pushed_ids();
    for (std::size_t i = ids.size(); i < pushed.size(); ++i) h.ack_from(0, pushed[i]);
    ids = pushed;
  }
  return ids;
}

/// (destination, list size) of every cert announce in `h.sent`.
std::vector<std::pair<ProcessId, std::size_t>> announce_lists(const Harness& h) {
  std::vector<std::pair<ProcessId, std::size_t>> lists;
  for (const Harness::Sent& s : h.sent) {
    if (s.msg->type_id() != kBatchCertAnnounce) continue;
    lists.emplace_back(s.to, static_cast<const BatchCertMsg&>(*s.msg).certs().size());
  }
  return lists;
}

TEST(DisseminatorRetryTest, OverdueCertsLeaveInListsOfAtMost64PerPeerPerTick) {
  Harness h(/*self=*/2);
  const std::vector<BatchId> ids = certify_hundred(h);
  ASSERT_EQ(ids.size(), 100U);
  EXPECT_EQ(h.count_sent(kBatchCertAnnounce, 3), 100U) << "fresh: a list of one each";
  EXPECT_EQ(announce_lists(h).size(), 100U) << "to the next proposer only";
  h.sent.clear();

  // All 100 fall due on the 100 ms tick: one message per 64-cert chunk,
  // each to the tick's proposer.
  h.run_until(h.now + kRetryInterval * 2);
  using Lists = std::vector<std::pair<ProcessId, std::size_t>>;
  EXPECT_EQ(announce_lists(h), (Lists{{3, 64}, {3, 36}}));
  std::set<BatchId> announced;
  for (const Harness::Sent& s : h.sent) {
    if (s.msg->type_id() != kBatchCertAnnounce) continue;
    for (const BatchCert& cert : static_cast<const BatchCertMsg&>(*s.msg).certs()) {
      announced.insert(cert.id());
    }
  }
  EXPECT_EQ(announced, std::set<BatchId>(ids.begin(), ids.end()));
}

TEST(DisseminatorRetryTest, ReannounceListsFollowTheProposer) {
  Harness h(/*self=*/2);
  ProcessId proposer = 1;
  h.next_proposer = [&proposer] { return proposer; };
  ASSERT_EQ(certify_hundred(h).size(), 100U);
  h.sent.clear();

  // The first re-announce tick (the 50 ms tick finds every cert less
  // than 50 ms old, the 100 ms one sends them all), then the proposer
  // changes before the next due tick, 100 ms later.
  using Lists = std::vector<std::pair<ProcessId, std::size_t>>;
  h.run_until(TimePoint::origin() + kRetryInterval * 2);
  EXPECT_EQ(announce_lists(h), (Lists{{1, 64}, {1, 36}}));
  h.sent.clear();
  proposer = 0;
  h.run_until(TimePoint::origin() + kRetryInterval * 4);
  EXPECT_EQ(announce_lists(h), (Lists{{0, 64}, {0, 36}}));
  h.sent.clear();

  // A tick on which the origin itself proposes next sends nothing, and
  // the schedule moves on.
  proposer = 2;
  h.run_until(TimePoint::origin() + kRetryInterval * 8);
  EXPECT_TRUE(announce_lists(h).empty());
  proposer = 3;
  h.run_until(TimePoint::origin() + kRetryInterval * 12);
  EXPECT_EQ(announce_lists(h), (Lists{{3, 64}, {3, 36}}));
}

TEST(BatchCertMsgTest, ListRoundTripsAndMalformedFramesAreRejected) {
  Harness h(/*self=*/2);
  MessageCodec codec;
  register_dissem_messages(codec);
  codec.set_sig_wire(h.auth.wire_spec());
  BatchCertMsg::Certs certs;
  for (std::uint64_t seq = 1; seq <= BatchCertMsg::kMaxCerts + 1; ++seq) {
    certs.push_back(h.cert_for(id_for(1, seq, bytes_of(8, static_cast<std::uint8_t>(seq)))));
  }
  const auto frame_of = [](BatchCertMsg::Certs list) {
    return MessageCodec::encode(BatchCertMsg(std::move(list)));
  };

  for (const std::size_t count : {std::size_t{1}, std::size_t{BatchCertMsg::kMaxCerts}}) {
    const BatchCertMsg::Certs list(certs.begin(), certs.begin() + static_cast<long>(count));
    const MessagePtr back = codec.decode(frame_of(list));
    ASSERT_NE(back, nullptr) << count << " certs";
    EXPECT_EQ(static_cast<const BatchCertMsg&>(*back).certs(), list);
  }

  EXPECT_EQ(codec.decode(frame_of({})), nullptr) << "an empty list announces nothing";
  EXPECT_EQ(codec.decode(frame_of(certs)), nullptr) << "more than kMaxCerts";
  // A count that promises more certs than the frame holds, and a frame
  // cut inside its last cert.
  auto lying = frame_of({certs[0], certs[1]});
  lying[4] = 3;
  EXPECT_EQ(codec.decode(lying), nullptr);
  auto truncated = frame_of({certs[0], certs[1]});
  truncated.resize(truncated.size() - 5);
  EXPECT_EQ(codec.decode(truncated), nullptr);
}

// ---- end to end under consensus ---------------------------------------

ScenarioBuilder dissem_cluster(std::uint64_t seed, std::size_t request_bytes,
                               std::uint32_t n = 4, TimePoint stop = TimePoint::max()) {
  workload::WorkloadSpec spec;
  spec.arrival = workload::Arrival::kConstant;
  spec.clients_per_node = 1;
  spec.rate_per_client = 150.0;
  spec.request_bytes = request_bytes;
  spec.mempool.max_pending_count = 256;
  spec.stop = stop;
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(n, Duration::millis(10), /*x=*/4));
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
  EXPECT_GT(metrics.count_for_type(kBatchAck), 0U);
  EXPECT_GT(metrics.dissem_bytes(), 0U);
  EXPECT_TRUE(metrics.batch_cert_latency_percentile(0.5).has_value());

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

  const workload::Report report = cluster.workload_report();
  EXPECT_GT(report.committed_between(TimePoint(Duration::seconds(2).ticks()) + Duration::millis(10),
                                     TimePoint(Duration::seconds(4).ticks())),
            0U)
      << "the majority side must keep committing requests through the cut";
  EXPECT_EQ(report.commit_misses, 0U);
  for (ProcessId id = 0; id < 4; ++id) {
    ASSERT_NE(cluster.node(id).disseminator(), nullptr);
    EXPECT_EQ(cluster.node(id).disseminator()->unresolved_count(), 0U) << "node " << id;
  }
}

TEST(DissemClusterTest, EachCertIsAnnouncedAboutOnce) {
  // Fault-free: a fresh cert goes to the next proposer only, and one that
  // is ordered within a retry interval is never re-announced. A broadcast
  // would send n - 1 = 6 announces per certified batch.
  Cluster cluster(dissem_cluster(34, /*request_bytes=*/64, /*n=*/7));
  cluster.run_for(Duration::seconds(4));

  const runtime::MetricsCollector& metrics = cluster.metrics();
  ASSERT_GT(metrics.batches_certified(), 100U);
  EXPECT_LE(static_cast<double>(metrics.count_for_type(kBatchCertAnnounce)),
            1.2 * static_cast<double>(metrics.batches_certified()));
  EXPECT_EQ(cluster.workload_report().commit_misses, 0U);
}

TEST(DissemClusterTest, SilentProposerAndCrashLoseNoRequest) {
  // n = 7 with a leader that never proposes (it still disseminates and
  // is the next proposer for a pair of views in every rotation, so some
  // fresh certs reach only it) and an honest replica that is down for a
  // second. Re-announces to the rotating next proposer must still get
  // every batch ordered: each request an honest client submitted before
  // `stop` commits exactly once by the end of the run.
  const TimePoint stop(Duration::seconds(5).ticks());
  ScenarioBuilder builder = dissem_cluster(35, /*request_bytes=*/64, /*n=*/7, stop);
  builder.behaviors(adversary::byzantine_set(
      {6}, [](ProcessId) { return std::make_unique<adversary::SilentLeaderBehavior>(); }));
  builder.crash(5, TimePoint(Duration::seconds(2).ticks()));
  builder.recover(5, TimePoint(Duration::seconds(3).ticks()));
  Cluster cluster(builder);
  cluster.run_for(Duration::seconds(9));

  const std::vector<ProcessId> honest = cluster.honest_ids();
  ASSERT_EQ(honest.size(), 6U);
  workload::Report report;
  for (const ProcessId id : honest) report.merge(*cluster.node_workload(id));
  EXPECT_GT(report.submitted, 500U);
  EXPECT_EQ(report.shed, 0U);
  EXPECT_EQ(report.committed, report.submitted)
      << report.outstanding << " honest requests never committed";
  EXPECT_EQ(report.outstanding, 0U);
  EXPECT_EQ(report.commit_misses, 0U);
  EXPECT_EQ(fuzz::check_exactly_once(cluster), std::nullopt);
}

}  // namespace
}  // namespace lumiere::dissem
