// SyncTracer unit exactness: spans are counter deltas, so view-sync costs
// injected directly between sync-start and view-entry must land in the
// span — no more, no less — regardless of what happened before the
// episode or what other traffic the node sent meanwhile.
#include "obs/tracer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace lumiere::obs {
namespace {

TEST(SyncTracerTest, SpanCarriesExactlyTheInjectedCosts) {
  SyncTracer tracer(2);

  // Pre-episode noise on node 0: must NOT be attributed to the span.
  tracer.note_sent(0, MsgClass::kPacemaker, 100);
  tracer.auth_counters(0).count_sign();
  tracer.auth_counters(0).count_verify();

  tracer.on_sync_started(0, TimePoint(1000), /*current=*/3, /*target=*/4);

  // The episode's spend: 3 view-sync messages of 40 bytes, one share, two
  // share verifies, one aggregate built, one aggregate verify.
  tracer.note_sent(0, MsgClass::kPacemaker, 40);
  tracer.note_sent(0, MsgClass::kPacemaker, 40);
  tracer.note_sent(0, MsgClass::kPacemaker, 40);
  // Traffic of other classes sent meanwhile is not view-sync cost.
  tracer.note_sent(0, MsgClass::kConsensus, 500);
  tracer.note_sent(0, MsgClass::kDissem, 600);
  tracer.note_sent(0, MsgClass::kSync, 700);
  tracer.auth_counters(0).count_share();
  tracer.auth_counters(0).count_share_verify();
  tracer.auth_counters(0).count_share_verify();
  tracer.auth_counters(0).count_aggregate_built();
  tracer.auth_counters(0).count_aggregate_verify();

  const auto span = tracer.on_view_entered(0, TimePoint(2500), /*view=*/5);
  ASSERT_TRUE(span.has_value());
  EXPECT_EQ(span->node, 0U);
  EXPECT_EQ(span->from_view, 3);
  EXPECT_EQ(span->target_view, 4);
  EXPECT_EQ(span->entered_view, 5);
  EXPECT_EQ(span->start, TimePoint(1000));
  EXPECT_EQ(span->end, TimePoint(2500));
  EXPECT_EQ(span->duration(), Duration(1500));
  EXPECT_TRUE(span->completed);

  EXPECT_EQ(span->msgs_sent, 3U);
  EXPECT_EQ(span->bytes_sent, 120U);
  EXPECT_EQ(span->auth.shares, 1U);
  EXPECT_EQ(span->auth.share_verifies, 2U);
  EXPECT_EQ(span->auth.aggregates_built, 1U);
  EXPECT_EQ(span->auth.aggregate_verifies, 1U);
  EXPECT_EQ(span->auth.signs, 0U) << "pre-episode sign leaked into the span";
  EXPECT_EQ(span->auth.verifies, 0U) << "pre-episode verify leaked into the span";
  EXPECT_EQ(span->auth_ops(), 5U);

  // Cumulative meters still carry everything, of every class.
  EXPECT_EQ(tracer.msgs_sent(0), 7U);
  EXPECT_EQ(tracer.bytes_sent(0), 2020U);
  EXPECT_EQ(tracer.auth_snapshot(0).total(), 7U);

  // Node 1 saw nothing.
  EXPECT_EQ(tracer.msgs_sent(1), 0U);
  EXPECT_FALSE(tracer.last_span(1).has_value());
}

TEST(SyncTracerTest, PassiveViewEntryYieldsNoSpan) {
  SyncTracer tracer(1);
  tracer.note_sent(0, MsgClass::kPacemaker, 10);
  EXPECT_FALSE(tracer.on_view_entered(0, TimePoint(5), 1).has_value());
  EXPECT_EQ(tracer.completed_count(), 0U);
  EXPECT_FALSE(tracer.last_span(0).has_value());
}

TEST(SyncTracerTest, FirstStartWinsWhileOpen) {
  SyncTracer tracer(1);
  tracer.on_sync_started(0, TimePoint(100), 1, 2);
  tracer.note_sent(0, MsgClass::kPacemaker, 8);
  // The pacemaker escalates its target mid-episode: same struggle, same
  // span — identity fields keep the first start.
  tracer.on_sync_started(0, TimePoint(200), 1, 3);
  tracer.note_sent(0, MsgClass::kPacemaker, 8);
  const auto span = tracer.on_view_entered(0, TimePoint(300), 3);
  ASSERT_TRUE(span.has_value());
  EXPECT_EQ(span->start, TimePoint(100));
  EXPECT_EQ(span->target_view, 2);
  EXPECT_EQ(span->entered_view, 3);
  EXPECT_EQ(span->msgs_sent, 2U);

  // The episode is closed: a fresh start opens a fresh span.
  tracer.on_sync_started(0, TimePoint(400), 3, 4);
  const auto next = tracer.on_view_entered(0, TimePoint(450), 4);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->start, TimePoint(400));
  EXPECT_EQ(next->msgs_sent, 0U);
  EXPECT_EQ(tracer.completed_count(), 2U);
}

TEST(SyncTracerTest, OpenSpanReportsLiveCosts) {
  SyncTracer tracer(1);
  EXPECT_FALSE(tracer.open_span(0, TimePoint(0)).has_value());
  tracer.on_sync_started(0, TimePoint(10), 0, 1);
  tracer.note_sent(0, MsgClass::kPacemaker, 44);
  tracer.auth_counters(0).count_share();

  const auto live = tracer.open_span(0, TimePoint(70));
  ASSERT_TRUE(live.has_value());
  EXPECT_FALSE(live->completed);
  EXPECT_EQ(live->msgs_sent, 1U);
  EXPECT_EQ(live->bytes_sent, 44U);
  EXPECT_EQ(live->auth.shares, 1U);
  EXPECT_EQ(live->duration(), Duration(60));

  // A caller with no safe clock (TCP status thread) passes origin: the
  // duration clamps to zero instead of going negative.
  const auto clamped = tracer.open_span(0, TimePoint::origin());
  ASSERT_TRUE(clamped.has_value());
  EXPECT_EQ(clamped->duration(), Duration::zero());
  EXPECT_EQ(clamped->msgs_sent, 1U);
}

TEST(SyncTracerTest, CompletedRingIsBoundedAndCountsDrops) {
  SyncTracer tracer(1, /*max_spans=*/2);
  for (View v = 0; v < 5; ++v) {
    tracer.on_sync_started(0, TimePoint(10 * v), v, v + 1);
    tracer.on_view_entered(0, TimePoint(10 * v + 5), v + 1);
  }
  EXPECT_EQ(tracer.completed_count(), 2U);
  EXPECT_EQ(tracer.dropped_spans(), 3U);
  const auto spans = tracer.completed_spans();
  ASSERT_EQ(spans.size(), 2U);
  EXPECT_EQ(spans.front().entered_view, 4);  // oldest survivor
  EXPECT_EQ(spans.back().entered_view, 5);
  // last_span is unaffected by ring eviction.
  ASSERT_TRUE(tracer.last_span(0).has_value());
  EXPECT_EQ(tracer.last_span(0)->entered_view, 5);
}

TEST(SyncTracerTest, RingReadsOldestFirstAcrossWraps) {
  SyncTracer tracer(1, /*max_spans=*/3);
  const auto complete = [&tracer](View v) {
    tracer.on_sync_started(0, TimePoint(10 * v), v - 1, v);
    tracer.on_view_entered(0, TimePoint(10 * v + 5), v);
  };
  const auto entered = [&tracer] {
    std::vector<View> views;
    for (const SyncSpan& span : tracer.completed_spans()) views.push_back(span.entered_view);
    return views;
  };
  for (View v = 1; v <= 5; ++v) complete(v);
  EXPECT_EQ(entered(), (std::vector<View>{3, 4, 5}));
  EXPECT_EQ(tracer.dropped_spans(), 2U);
  EXPECT_EQ(tracer.completed_count(), 3U);
  // A read left the ring oldest-first; the next span still evicts the
  // oldest one.
  complete(6);
  EXPECT_EQ(entered(), (std::vector<View>{4, 5, 6}));
  EXPECT_EQ(tracer.dropped_spans(), 3U);
  // Two reads in a row see the same order.
  EXPECT_EQ(entered(), (std::vector<View>{4, 5, 6}));
}

TEST(SyncTracerTest, UnboundedRingKeepsEverySpan) {
  SyncTracer tracer(1, /*max_spans=*/0);
  for (View v = 0; v < 100; ++v) {
    tracer.on_sync_started(0, TimePoint(10 * v), v, v + 1);
    tracer.on_view_entered(0, TimePoint(10 * v + 5), v + 1);
  }
  EXPECT_EQ(tracer.completed_count(), 100U);
  EXPECT_EQ(tracer.dropped_spans(), 0U);
  const CompletedSpans spans = tracer.completed_spans();
  ASSERT_EQ(spans.size(), 100U);
  EXPECT_EQ(spans.front().entered_view, 1);
  EXPECT_EQ(spans.back().entered_view, 100);
}

TEST(SyncTracerTest, RingRoundTripsEverySpanField) {
  SyncTracer tracer(3);
  tracer.on_sync_started(2, TimePoint(-7), /*current=*/-1, /*target=*/40);
  tracer.note_sent(2, MsgClass::kPacemaker, 300);
  tracer.note_sent(2, MsgClass::kPacemaker, 12);
  crypto::AuthOpCounters& auth = tracer.auth_counters(2);
  auth.count_sign();
  for (int i = 0; i < 2; ++i) auth.count_share();
  for (int i = 0; i < 3; ++i) auth.count_verify();
  for (int i = 0; i < 4; ++i) auth.count_share_verify();
  for (int i = 0; i < 5; ++i) auth.count_aggregate_verify();
  for (int i = 0; i < 6; ++i) auth.count_aggregate_built();
  const auto done = tracer.on_view_entered(2, TimePoint(123'456), /*view=*/38);
  ASSERT_TRUE(done.has_value());

  const CompletedSpans spans = tracer.completed_spans();
  ASSERT_EQ(spans.size(), 1U);
  const SyncSpan span = spans[0];
  EXPECT_EQ(span.node, 2U);
  EXPECT_EQ(span.from_view, -1);
  EXPECT_EQ(span.target_view, 40);
  EXPECT_EQ(span.entered_view, 38);
  EXPECT_EQ(span.start, TimePoint(-7));
  EXPECT_EQ(span.end, TimePoint(123'456));
  EXPECT_EQ(span.msgs_sent, 2U);
  EXPECT_EQ(span.bytes_sent, 312U);
  EXPECT_EQ(span.auth, (crypto::AuthOpSnapshot{1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(span.completed);
  // The ring gives back exactly what on_view_entered returned.
  EXPECT_EQ(span.auth, done->auth);
  EXPECT_EQ(span.end, done->end);
}

TEST(SyncTracerTest, RingSaturatesValuesBeyondThePackedWidths) {
  constexpr std::uint64_t kU32Max = 0xffff'ffffULL;
  SyncTracer tracer(1);
  // Through the ring: bytes, duration and view offsets past 32 bits.
  tracer.on_sync_started(0, TimePoint(0), /*current=*/10, /*target=*/10 + 5'000'000'000LL);
  tracer.note_sent(0, MsgClass::kPacemaker, 6'000'000'000ULL);
  tracer.on_view_entered(0, TimePoint(9'000'000'000LL), /*view=*/10 - 5'000'000'000LL);
  const SyncSpan ring = tracer.completed_spans().back();
  EXPECT_EQ(ring.bytes_sent, kU32Max);
  EXPECT_EQ(ring.msgs_sent, 1U) << "an in-range field stays exact";
  EXPECT_EQ(ring.duration(), Duration(static_cast<std::int64_t>(kU32Max)));
  EXPECT_EQ(ring.target_view, 10 + std::int64_t{INT32_MAX});
  EXPECT_EQ(ring.entered_view, 10 + std::int64_t{INT32_MIN});
  EXPECT_EQ(ring.from_view, 10);
  EXPECT_EQ(ring.start, TimePoint(0));

  // Directly: counts no tracer test can reach, extreme views, and a
  // negative duration.
  SyncSpan big;
  big.node = kNoProcess;
  big.from_view = std::numeric_limits<View>::min();
  big.target_view = std::numeric_limits<View>::max();
  big.entered_view = std::numeric_limits<View>::min();
  big.start = TimePoint(50);
  big.end = TimePoint(40);
  big.msgs_sent = kU32Max + 1;
  big.bytes_sent = std::numeric_limits<std::uint64_t>::max();
  big.auth = crypto::AuthOpSnapshot{kU32Max, kU32Max + 1, 0, 1ULL << 40, 7, kU32Max + 9};
  const SyncSpan out = PackedSpan(big).unpack();
  EXPECT_EQ(out.node, kNoProcess);
  EXPECT_EQ(out.from_view, std::numeric_limits<View>::min());
  EXPECT_EQ(out.target_view, std::numeric_limits<View>::min() + INT32_MAX);
  EXPECT_EQ(out.entered_view, std::numeric_limits<View>::min());
  EXPECT_EQ(out.duration(), Duration::zero()) << "a negative duration reads as zero";
  EXPECT_EQ(out.msgs_sent, kU32Max);
  EXPECT_EQ(out.bytes_sent, kU32Max);
  EXPECT_EQ(out.auth, (crypto::AuthOpSnapshot{kU32Max, kU32Max, 0, kU32Max, 7, kU32Max}));
}

}  // namespace
}  // namespace lumiere::obs
