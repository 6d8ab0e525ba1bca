// SyncTracer unit exactness: spans are counter deltas, so costs injected
// directly between sync-start and view-entry must land in the span — no
// more, no less — regardless of what happened before the episode.
#include "obs/tracer.h"

#include <gtest/gtest.h>

namespace lumiere::obs {
namespace {

TEST(SyncTracerTest, SpanCarriesExactlyTheInjectedCosts) {
  SyncTracer tracer(2);

  // Pre-episode noise on node 0: must NOT be attributed to the span.
  tracer.note_sent(0, 100);
  tracer.auth_counters(0).count_sign();
  tracer.auth_counters(0).count_verify();

  tracer.on_sync_started(0, TimePoint(1000), /*current=*/3, /*target=*/4);

  // The episode's spend: 3 messages of 40 bytes, one share, two share
  // verifies, one aggregate built, one aggregate verify.
  tracer.note_sent(0, 40);
  tracer.note_sent(0, 40);
  tracer.note_sent(0, 40);
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

  // Cumulative meters still carry everything.
  EXPECT_EQ(tracer.msgs_sent(0), 4U);
  EXPECT_EQ(tracer.bytes_sent(0), 220U);
  EXPECT_EQ(tracer.auth_snapshot(0).total(), 7U);

  // Node 1 saw nothing.
  EXPECT_EQ(tracer.msgs_sent(1), 0U);
  EXPECT_FALSE(tracer.last_span(1).has_value());
}

TEST(SyncTracerTest, PassiveViewEntryYieldsNoSpan) {
  SyncTracer tracer(1);
  tracer.note_sent(0, 10);
  EXPECT_FALSE(tracer.on_view_entered(0, TimePoint(5), 1).has_value());
  EXPECT_EQ(tracer.completed_count(), 0U);
  EXPECT_FALSE(tracer.last_span(0).has_value());
}

TEST(SyncTracerTest, FirstStartWinsWhileOpen) {
  SyncTracer tracer(1);
  tracer.on_sync_started(0, TimePoint(100), 1, 2);
  tracer.note_sent(0, 8);
  // The pacemaker escalates its target mid-episode: same struggle, same
  // span — identity fields keep the first start.
  tracer.on_sync_started(0, TimePoint(200), 1, 3);
  tracer.note_sent(0, 8);
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
  tracer.note_sent(0, 44);
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
  const std::vector<SyncSpan>& spans = tracer.completed_spans();
  ASSERT_EQ(spans.size(), 100U);
  EXPECT_EQ(spans.front().entered_view, 1);
  EXPECT_EQ(spans.back().entered_view, 100);
}

}  // namespace
}  // namespace lumiere::obs
