#include "sim/trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <type_traits>

#include "runtime/cluster.h"

namespace lumiere::sim {
namespace {

TEST(TraceLogTest, RecordAndQuery) {
  TraceLog log;
  log.record(TimePoint(10), TraceKind::kViewEntered, 0, 1);
  log.record(TimePoint(20), TraceKind::kQcFormed, 1, 1);
  log.record(TimePoint(30), TraceKind::kViewEntered, 0, 2);
  log.record(TimePoint(40), TraceKind::kCommitted, 2, 0, "genesis child");

  EXPECT_EQ(log.size(), 4U);
  EXPECT_EQ(log.of_kind(TraceKind::kViewEntered).size(), 2U);
  EXPECT_EQ(log.of_kind(TraceKind::kViewEntered, 0).size(), 2U);
  EXPECT_EQ(log.of_kind(TraceKind::kViewEntered, 1).size(), 0U);

  const TraceEvent* qc = log.first_after(TraceKind::kQcFormed, TimePoint(15));
  ASSERT_NE(qc, nullptr);
  EXPECT_EQ(qc->at, TimePoint(20));
  EXPECT_EQ(log.first_after(TraceKind::kQcFormed, TimePoint(21)), nullptr);

  const auto early = log.filtered([](const TraceEvent& e) { return e.at < TimePoint(25); });
  EXPECT_EQ(early.size(), 2U);
}

TEST(TraceLogTest, DumpFormatsAndTruncates) {
  TraceLog log;
  for (int i = 0; i < 5; ++i) {
    log.record(TimePoint(i), TraceKind::kQcFormed, 0, i);
  }
  std::ostringstream os;
  log.dump(os, 3);
  const std::string text = os.str();
  EXPECT_NE(text.find("qc-formed"), std::string::npos);
  EXPECT_NE(text.find("(2 more)"), std::string::npos);
}

TEST(TraceLogTest, ClusterRecordsProtocolEvents) {
  runtime::ScenarioBuilder options;
  options.params(ProtocolParams::for_n(4, Duration::millis(10), /*x=*/4));
  options.pacemaker("lumiere");
  options.core("chained-hotstuff");
  options.delay(std::make_shared<FixedDelay>(Duration::millis(1)));
  options.seed(4);
  runtime::Cluster cluster(options);
  cluster.run_for(Duration::seconds(5));

  const TraceLog& trace = cluster.trace();
  EXPECT_FALSE(trace.of_kind(TraceKind::kViewEntered).empty());
  EXPECT_FALSE(trace.of_kind(TraceKind::kQcFormed).empty());
  EXPECT_FALSE(trace.of_kind(TraceKind::kCommitted).empty());

  // Per-node view entries are strictly increasing (condition (1) of the
  // view-synchronization task, read off the trace this time).
  for (ProcessId id = 0; id < 4; ++id) {
    View last = -1;
    for (const auto& event : trace.of_kind(TraceKind::kViewEntered, id)) {
      EXPECT_GT(event.view, last);
      last = event.view;
    }
  }

  // A node's QC for view v must come after it entered view v.
  for (const auto& qc : trace.of_kind(TraceKind::kQcFormed, 0)) {
    bool entered_before = false;
    for (const auto& entry : trace.of_kind(TraceKind::kViewEntered, 0)) {
      if (entry.view == qc.view && entry.at <= qc.at) entered_before = true;
    }
    EXPECT_TRUE(entered_before) << "QC for view " << qc.view << " without prior entry";
  }
}

TEST(TraceLogTest, KindNames) {
  EXPECT_STREQ(to_string(TraceKind::kViewEntered), "view-entered");
  EXPECT_STREQ(to_string(TraceKind::kQcFormed), "qc-formed");
  EXPECT_STREQ(to_string(TraceKind::kCommitted), "committed");
  EXPECT_STREQ(to_string(TraceKind::kSyncStarted), "sync-started");
  EXPECT_STREQ(to_string(TraceKind::kSyncCompleted), "sync-completed");
  EXPECT_STREQ(to_string(TraceKind::kCustom), "custom");
}

TEST(TraceLogTest, BoundedRingEvictsOldestHalf) {
  TraceLog log(8);
  EXPECT_EQ(log.capacity(), 8U);
  for (int i = 0; i < 8; ++i) {
    log.record(TimePoint(i), TraceKind::kViewEntered, 0, i);
  }
  EXPECT_EQ(log.size(), 8U);
  EXPECT_EQ(log.dropped(), 0U);

  // The 9th record trims the oldest capacity/2 + 1 events first.
  log.record(TimePoint(8), TraceKind::kViewEntered, 0, 8);
  EXPECT_EQ(log.size(), 4U);
  EXPECT_EQ(log.dropped(), 5U);
  EXPECT_EQ(log.events().front().view, 5);  // views 0..4 evicted
  EXPECT_EQ(log.events().back().view, 8);

  log.clear();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.dropped(), 0U);
  EXPECT_EQ(log.capacity(), 8U);
}

TEST(TraceLogTest, EventsArePlainRecordsWithNotesOutOfLine) {
  static_assert(sizeof(TraceEvent) == 24);
  static_assert(std::is_trivially_copyable_v<TraceEvent>);
  TraceLog log(8);
  log.record(TimePoint(0), TraceKind::kCustom, 1, -1, "partition {0,1}|{2,3}");
  EXPECT_EQ(log.note(0), "partition {0,1}|{2,3}");
  for (int i = 1; i < 6; ++i) log.record(TimePoint(i), TraceKind::kViewEntered, 0, i);
  log.record(TimePoint(6), TraceKind::kCustom, 2, -1, "crash p2");
  log.record(TimePoint(7), TraceKind::kViewEntered, 0, 7);
  EXPECT_EQ(log.notes().size(), 2U);

  // The next record evicts events 0..4, the first note's event among
  // them; the notes stay.
  log.record(TimePoint(8), TraceKind::kViewEntered, 0, 8);
  ASSERT_EQ(log.size(), 4U);
  ASSERT_EQ(log.notes().size(), 2U);
  EXPECT_EQ(log.notes()[0].text, "partition {0,1}|{2,3}");
  EXPECT_EQ(log.notes()[0].at, TimePoint(0));
  EXPECT_EQ(log.notes()[0].node, 1U);
  ASSERT_EQ(log.events()[1].kind, TraceKind::kCustom);
  EXPECT_EQ(log.note(1), "crash p2");
  EXPECT_EQ(log.note(0), "");
  EXPECT_EQ(log.note(2), "");
  std::ostringstream os;
  log.dump(os);
  EXPECT_NE(os.str().find("custom p2 view -1 [crash p2]"), std::string::npos) << os.str();
  EXPECT_EQ(os.str().find("partition"), std::string::npos) << "the dump lists events";

  // Once no event of the ring carries a note, note() reads empty, and
  // notes() still holds both.
  for (int i = 9; i < 14; ++i) log.record(TimePoint(i), TraceKind::kViewEntered, 0, i);
  EXPECT_EQ(log.notes().size(), 2U);
  for (std::size_t i = 0; i < log.size(); ++i) EXPECT_EQ(log.note(i), "") << i;

  log.record(TimePoint(14), TraceKind::kCustom, 3, -1, "heal");
  log.clear();
  EXPECT_TRUE(log.notes().empty());
}

TEST(TraceLogTest, ZeroCapacityMeansDefault) {
  TraceLog log(0);
  EXPECT_EQ(log.capacity(), TraceLog::kDefaultCapacity);
}

TEST(TraceLogTest, SoakRunStaysWithinCapacity) {
  TraceLog log(16);
  for (int i = 0; i < 1000; ++i) {
    log.record(TimePoint(i), TraceKind::kQcFormed, 0, i);
  }
  EXPECT_LE(log.size(), 16U);
  EXPECT_EQ(log.size() + log.dropped(), 1000U);
  // The survivors are the most recent window, still in order.
  View last = log.events().front().view - 1;
  for (const TraceEvent& event : log.events()) {
    EXPECT_EQ(event.view, last + 1);
    last = event.view;
  }
  EXPECT_EQ(last, 999);
}

}  // namespace
}  // namespace lumiere::sim
