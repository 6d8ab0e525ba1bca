// Structured execution traces.
//
// A TraceLog collects protocol-level events (view entries, QC formations,
// commits, sync-span boundaries) with timestamps. Used by tests to assert
// on event orderings and by examples/benches to print timelines; cheap
// enough to stay on in every Cluster run.
//
// Capacity: the log is a bounded ring (default 1 << 18 events). When
// full, the oldest half is discarded in one amortized trim — events()
// keeps returning a plain contiguous vector, so existing callers and the
// gtest matchers still work — and dropped() counts what was evicted. A
// soak-length run therefore holds the most recent window instead of
// growing without limit. An event is a 24-byte plain record, so a full
// log is 6 MiB. The few events that carry a note (fault-script entries)
// keep it in a side list the trim does not touch: a note is the one
// record of a fired script event, and outlives its event.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "common/types.h"

namespace lumiere::sim {

enum class TraceKind : std::uint8_t {
  kViewEntered,
  kQcFormed,
  kCommitted,
  kSyncStarted,    ///< a pacemaker began a view-sync episode
  kSyncCompleted,  ///< that episode closed with a view entry
  kCustom,
};

[[nodiscard]] const char* to_string(TraceKind kind);

struct TraceEvent {
  TimePoint at;
  View view = -1;
  ProcessId node = kNoProcess;
  TraceKind kind = TraceKind::kCustom;
};
static_assert(sizeof(TraceEvent) == 24, "a trace event is a 24-byte plain record");

class TraceLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 18;

  explicit TraceLog(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? kDefaultCapacity : capacity) {}

  /// A note and its event's position counted from the first event ever
  /// recorded (dropped() + index in events()).
  struct Note {
    std::uint64_t seq;
    TimePoint at;
    ProcessId node;
    std::string text;
  };

  void record(TimePoint at, TraceKind kind, ProcessId node, View view,
              std::string note = {}) {
    trim_if_full();
    if (!note.empty()) {
      notes_.push_back(Note{dropped_ + events_.size(), at, node, std::move(note)});
    }
    events_.push_back(TraceEvent{at, view, node, kind});
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept { return events_; }
  /// The note recorded with events()[index]; empty if it has none.
  [[nodiscard]] std::string_view note(std::size_t index) const;
  /// Every note recorded since construction/clear(), in order, including
  /// those whose events were evicted.
  [[nodiscard]] const std::vector<Note>& notes() const noexcept { return notes_; }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Events evicted by the capacity bound since construction/clear().
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  void clear() {
    events_.clear();
    notes_.clear();
    dropped_ = 0;
  }

  /// Events matching a predicate, in order.
  [[nodiscard]] std::vector<TraceEvent> filtered(
      const std::function<bool(const TraceEvent&)>& predicate) const;

  /// Events of one kind for one node (kNoProcess = any node).
  [[nodiscard]] std::vector<TraceEvent> of_kind(TraceKind kind,
                                                ProcessId node = kNoProcess) const;

  /// First event of `kind` at or after `from`; nullptr if none.
  [[nodiscard]] const TraceEvent* first_after(TraceKind kind, TimePoint from) const;

  /// Human-readable dump (one line per event).
  void dump(std::ostream& os, std::size_t max_events = SIZE_MAX) const;

 private:
  void trim_if_full() {
    if (events_.size() < capacity_) return;
    // Drop the oldest half in one move: O(1) amortized per record, and
    // the survivors stay contiguous for events(). Notes stay.
    const std::size_t drop = capacity_ / 2 + 1;
    events_.erase(events_.begin(), events_.begin() + static_cast<std::ptrdiff_t>(drop));
    dropped_ += drop;
  }

  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::vector<TraceEvent> events_;
  std::vector<Note> notes_;  ///< in event order
};

}  // namespace lumiere::sim
