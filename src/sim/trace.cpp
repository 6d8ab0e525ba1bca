#include "sim/trace.h"

#include <algorithm>

namespace lumiere::sim {

const char* to_string(TraceKind kind) {
  switch (kind) {
    case TraceKind::kViewEntered:
      return "view-entered";
    case TraceKind::kQcFormed:
      return "qc-formed";
    case TraceKind::kCommitted:
      return "committed";
    case TraceKind::kSyncStarted:
      return "sync-started";
    case TraceKind::kSyncCompleted:
      return "sync-completed";
    case TraceKind::kCustom:
      return "custom";
  }
  return "?";
}

std::vector<TraceEvent> TraceLog::filtered(
    const std::function<bool(const TraceEvent&)>& predicate) const {
  std::vector<TraceEvent> out;
  for (const auto& event : events_) {
    if (predicate(event)) out.push_back(event);
  }
  return out;
}

std::vector<TraceEvent> TraceLog::of_kind(TraceKind kind, ProcessId node) const {
  return filtered([kind, node](const TraceEvent& event) {
    return event.kind == kind && (node == kNoProcess || event.node == node);
  });
}

const TraceEvent* TraceLog::first_after(TraceKind kind, TimePoint from) const {
  for (const auto& event : events_) {
    if (event.kind == kind && event.at >= from) return &event;
  }
  return nullptr;
}

std::string_view TraceLog::note(std::size_t index) const {
  const std::uint64_t seq = dropped_ + index;
  const auto it = std::lower_bound(notes_.begin(), notes_.end(), seq,
                                   [](const Note& note, std::uint64_t s) { return note.seq < s; });
  return it != notes_.end() && it->seq == seq ? std::string_view(it->text) : std::string_view();
}

void TraceLog::dump(std::ostream& os, std::size_t max_events) const {
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (i >= max_events) {
      os << "... (" << events_.size() - max_events << " more)\n";
      return;
    }
    const TraceEvent& event = events_[i];
    os << event.at << " " << to_string(event.kind) << " p" << event.node << " view "
       << event.view;
    if (const std::string_view text = note(i); !text.empty()) os << " [" << text << "]";
    os << "\n";
  }
}

}  // namespace lumiere::sim
