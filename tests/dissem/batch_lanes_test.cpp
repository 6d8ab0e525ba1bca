// The per-origin batch table (dissem/batch_lanes.h): records land in
// their origin's lane in any arrival order, one (origin, seq) can hold
// two digests, ids that cannot take a lane slot behave like a plain map,
// and a forged far-ahead seq costs one chunk. The Disseminator test at
// the end checks the same two-digest case through the protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <random>
#include <vector>

#include "crypto/authenticator.h"
#include "dissem/batch_lanes.h"
#include "dissem/disseminator.h"

namespace lumiere::dissem {
namespace {

BatchBytes bytes_for(ProcessId origin, std::uint64_t seq, std::uint8_t variant = 0) {
  std::vector<std::uint8_t> payload(12, variant);
  for (std::size_t i = 0; i < 8; ++i) payload[i] = static_cast<std::uint8_t>(seq >> (8 * i));
  payload[8] = static_cast<std::uint8_t>(origin);
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(payload));
}

BatchId id_of(ProcessId origin, std::uint64_t seq, const BatchBytes& bytes) {
  return BatchId{origin, seq,
                 crypto::Sha256::hash(std::span<const std::uint8_t>(bytes->data(), bytes->size()))};
}

/// Stores (origin, seq) for every seq in `seqs`, in that order.
void store_all(BatchLanes& table, ProcessId origin, const std::vector<std::uint64_t>& seqs) {
  for (const std::uint64_t seq : seqs) {
    const BatchBytes bytes = bytes_for(origin, seq);
    table.store(id_of(origin, seq, bytes), bytes);
  }
}

/// True when the table holds the bytes (origin, seq) was stored with.
bool holds(const BatchLanes& table, ProcessId origin, std::uint64_t seq) {
  const BatchBytes bytes = bytes_for(origin, seq);
  const BatchBytes* stored = table.bytes(id_of(origin, seq, bytes));
  return stored != nullptr && **stored == *bytes;
}

std::vector<std::uint64_t> seq_range(std::uint64_t first, std::uint64_t last) {
  std::vector<std::uint64_t> seqs(last - first + 1);
  std::iota(seqs.begin(), seqs.end(), first);
  return seqs;
}

TEST(BatchLanesTest, SeqsInAndOutOfOrderLandInTheirLanes) {
  BatchLanes table(4);
  store_all(table, 0, seq_range(1, 40));
  std::vector<std::uint64_t> shuffled = seq_range(1, 40);
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(7));
  store_all(table, 1, shuffled);

  for (std::uint64_t seq = 1; seq <= 40; ++seq) {
    EXPECT_TRUE(holds(table, 0, seq)) << "in order, seq " << seq;
    EXPECT_TRUE(holds(table, 1, seq)) << "shuffled, seq " << seq;
    EXPECT_FALSE(holds(table, 2, seq)) << "another origin's lane stays empty";
  }
  EXPECT_FALSE(holds(table, 0, 41));
  EXPECT_EQ(table.overflow_size(), 0U);
  // Seqs 0..47 span three chunks per lane.
  EXPECT_EQ(table.chunks(), 6U);
}

TEST(BatchLanesTest, AGapOf600SeqsFillsLater) {
  // A replica cut off for a while stores the seqs after its gap first and
  // the missed ones when fetches or re-pushes bring them.
  BatchLanes table(7);
  store_all(table, 3, seq_range(1, 100));
  store_all(table, 3, seq_range(701, 800));
  for (std::uint64_t seq = 101; seq <= 700; ++seq) EXPECT_FALSE(holds(table, 3, seq));
  store_all(table, 3, seq_range(101, 700));
  for (std::uint64_t seq = 1; seq <= 800; ++seq) EXPECT_TRUE(holds(table, 3, seq)) << seq;
  EXPECT_EQ(table.overflow_size(), 0U);
  EXPECT_EQ(table.chunks(), 800 / BatchLanes::kChunkRecords + 1);
}

TEST(BatchLanesTest, OneSeqUnderTwoDigestsKeepsBoth) {
  // A restarted origin reuses seq 5, or another replica forges a push
  // under it: both batches are stored, read and ordered separately.
  BatchLanes table(4);
  const BatchBytes first_bytes = bytes_for(2, 5, 0x01);
  const BatchBytes second_bytes = bytes_for(2, 5, 0x02);
  const BatchId first = id_of(2, 5, first_bytes);
  const BatchId second = id_of(2, 5, second_bytes);
  ASSERT_NE(first, second);

  table.store(first, first_bytes);
  EXPECT_EQ(table.bytes(second), nullptr);
  table.store(second, second_bytes);
  ASSERT_NE(table.bytes(first), nullptr);
  ASSERT_NE(table.bytes(second), nullptr);
  EXPECT_EQ(**table.bytes(first), *first_bytes);
  EXPECT_EQ(**table.bytes(second), *second_bytes);
  EXPECT_EQ(table.overflow_size(), 1U) << "the second digest overflows";

  EXPECT_TRUE(table.mark_ordered(second));
  EXPECT_FALSE(table.ordered(first));
  EXPECT_TRUE(table.mark_ordered(first));
  EXPECT_FALSE(table.mark_ordered(first));
  EXPECT_FALSE(table.mark_ordered(second));
  EXPECT_TRUE(table.ordered(first));
  EXPECT_TRUE(table.ordered(second));

  // A record may be ordered before its bytes arrive; a later store
  // fills it, and a store never replaces bytes already kept.
  const BatchBytes late_bytes = bytes_for(2, 6);
  const BatchId late = id_of(2, 6, late_bytes);
  EXPECT_TRUE(table.mark_ordered(late));
  EXPECT_EQ(table.bytes(late), nullptr);
  table.store(late, late_bytes);
  ASSERT_NE(table.bytes(late), nullptr);
  EXPECT_EQ(*table.bytes(late), late_bytes);
  table.store(late, bytes_for(2, 6));
  EXPECT_EQ(*table.bytes(late), late_bytes) << "the first bytes stay";
  EXPECT_TRUE(table.ordered(late));
}

TEST(BatchLanesTest, IdsWithoutALaneSlotBehaveLikeAMap) {
  BatchLanes table(4);
  const BatchBytes bytes = bytes_for(1, 3);
  BatchId zero_digest = id_of(1, 3, bytes);
  zero_digest.digest = crypto::Digest{};
  const BatchId seq_zero = id_of(1, 0, bytes);
  const BatchId far_origin = id_of(4, 3, bytes);
  const BatchId laned = id_of(1, 3, bytes);

  EXPECT_EQ(table.find(zero_digest), nullptr) << "an unclaimed slot is not a zero-digest record";
  for (const BatchId& id : {zero_digest, seq_zero, far_origin}) {
    EXPECT_TRUE(table.mark_ordered(id));
    EXPECT_FALSE(table.mark_ordered(id));
    table.store(id, bytes);
  }
  EXPECT_EQ(table.overflow_size(), 3U);
  EXPECT_EQ(table.chunks(), 0U) << "none of them took a lane slot";

  EXPECT_EQ(table.find(laned), nullptr);
  EXPECT_FALSE(table.ordered(laned));
  table.store(laned, bytes);
  EXPECT_EQ(table.overflow_size(), 3U);
  EXPECT_EQ(table.chunks(), 1U);
  for (const BatchId& id : {zero_digest, seq_zero, far_origin, laned}) {
    ASSERT_NE(table.bytes(id), nullptr);
    EXPECT_EQ(*table.bytes(id), bytes);
  }
  EXPECT_FALSE(table.ordered(laned));
  EXPECT_TRUE(table.ordered(zero_digest));
}

TEST(BatchLanesTest, ForgedFarApartSeqsCostOneChunkEach) {
  BatchLanes table(4);
  // Lookups allocate nothing.
  const BatchBytes probe = bytes_for(1, std::uint64_t{1} << 40);
  EXPECT_EQ(table.find(id_of(1, std::uint64_t{1} << 40, probe)), nullptr);
  EXPECT_FALSE(table.ordered(id_of(1, std::uint64_t{1} << 40, probe)));
  EXPECT_EQ(table.chunks(), 0U);

  // Each forged seq costs one chunk (at most 1 KiB, asserted in the
  // header).
  constexpr std::uint64_t kForged = 1000;
  for (std::uint64_t k = 1; k <= kForged; ++k) {
    const std::uint64_t seq = k << 32;
    const BatchBytes bytes = bytes_for(1, seq);
    table.store(id_of(1, seq, bytes), bytes);
    EXPECT_EQ(table.chunks(), k) << "seq " << seq;
  }
  EXPECT_EQ(table.overflow_size(), 0U);
  EXPECT_TRUE(holds(table, 1, std::uint64_t{500} << 32));

  // The origin's honest stream still fills its own slots.
  store_all(table, 1, seq_range(1, 16));
  EXPECT_EQ(table.chunks(), kForged + 2);
  EXPECT_TRUE(holds(table, 1, 16));
  EXPECT_EQ(table.overflow_size(), 0U);
}

TEST(BatchLanesDisseminatorTest, TwoDigestsUnderOneSeqAreStoredAndDeliveredOnceEach) {
  const ProtocolParams params = ProtocolParams::for_n(4, Duration::millis(10));
  const auto auth_owner = crypto::make_authenticator(crypto::kDefaultScheme, 4, 29);
  const crypto::Authenticator& auth = *auth_owner;
  std::vector<std::vector<std::uint8_t>> delivered;
  DisseminatorCallbacks cb;
  cb.send = [](ProcessId, MessagePtr) {};
  cb.broadcast = [](MessagePtr) {};
  cb.schedule = [](Duration, std::function<void()>) {};
  cb.now = [] { return TimePoint::origin(); };
  cb.next_proposer = [] { return ProcessId{0}; };
  cb.lease_batch = [](std::vector<std::uint8_t>&) { return std::uint64_t{0}; };
  cb.ack_batch = [](std::uint64_t) {};
  cb.deliver = [&](TimePoint, const std::vector<std::uint8_t>& bytes) {
    delivered.push_back(bytes);
  };
  Disseminator engine(params, crypto::AuthView(&auth), auth.signer_for(3), std::move(cb));

  const BatchBytes first_bytes = bytes_for(1, 9, 0x01);
  const BatchBytes second_bytes = bytes_for(1, 9, 0x02);
  const BatchId first = id_of(1, 9, first_bytes);
  const BatchId second = id_of(1, 9, second_bytes);
  engine.on_message(1, std::make_shared<BatchPushMsg>(first, first_bytes));
  engine.on_message(2, std::make_shared<BatchPushMsg>(second, second_bytes));
  ASSERT_NE(engine.payload_of(first), nullptr);
  ASSERT_NE(engine.payload_of(second), nullptr);
  EXPECT_EQ(*engine.payload_of(first), *first_bytes);
  EXPECT_EQ(*engine.payload_of(second), *second_bytes);

  const auto cert_for = [&](const BatchId& id) {
    crypto::QuorumAggregator agg(crypto::AuthView(&auth), batch_statement(id),
                                 params.small_quorum());
    for (ProcessId signer = 0; signer < params.small_quorum(); ++signer) {
      agg.add(crypto::threshold_share(auth.signer_for(signer), batch_statement(id)));
    }
    return BatchCert(id, agg.aggregate());
  };
  const std::vector<std::uint8_t> refs = encode_refs({cert_for(second), cert_for(first)});
  const std::span<const std::uint8_t> payload(refs.data(), refs.size());
  engine.on_committed_payload(payload);
  engine.on_committed_payload(payload);
  ASSERT_EQ(delivered.size(), 2U) << "each digest delivers exactly once";
  EXPECT_EQ(delivered[0], *second_bytes);
  EXPECT_EQ(delivered[1], *first_bytes);
  EXPECT_EQ(engine.batches_delivered(), 2U);
}

}  // namespace
}  // namespace lumiere::dissem
