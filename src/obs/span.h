// The unit of view-synchronization cost attribution.
//
// A span brackets one sync episode on one node: it opens when the node's
// pacemaker first spends resources trying to leave its current view
// (wish/view-message/epoch-sync send — reported through
// PacemakerWiring::sync_started) and closes at the next view entry. The
// resources attributed to it are deltas of per-node cumulative counters,
// so attribution is exact regardless of transport: every view-sync
// (pacemaker-class) message and byte the node sent to another process
// between the two instants, and every authenticator op it performed,
// belongs to the episode (both transports receive a node's copy to itself
// only after the sending handler returns, so a broadcast's peer copies are
// charged before the node can enter a view on its own). Consensus,
// dissemination and block-sync traffic sent meanwhile is not view-sync
// cost and stays out of the span (the tracer's all-class meter, which a
// status reply serves, still counts it).
//
// A SyncSpan is 120 bytes. The tracer's completed-span ring stores each
// one as a 64-byte PackedSpan instead and unpacks it on read, so a full
// 2^16-span ring costs 4 MiB, not 7.5.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>

#include "common/time.h"
#include "common/types.h"
#include "crypto/auth_counters.h"

namespace lumiere::obs {

struct SyncSpan {
  ProcessId node = kNoProcess;
  View from_view = 0;   ///< the view the node was in when sync started
  View target_view = 0; ///< the view the pacemaker first aimed for
  View entered_view = 0;///< the view actually entered (completed spans)
  TimePoint start;      ///< sync_started instant
  TimePoint end;        ///< view-entry instant (== start while open)
  std::uint64_t msgs_sent = 0;   ///< pacemaker-class messages sent inside the span
  std::uint64_t bytes_sent = 0;  ///< wire bytes of those messages
  crypto::AuthOpSnapshot auth;   ///< authenticator ops inside the span
  bool completed = false;

  [[nodiscard]] Duration duration() const noexcept { return end - start; }
  [[nodiscard]] std::uint64_t auth_ops() const noexcept { return auth.total(); }
};

/// A completed span in 64 bytes. Exact for every field within its packed
/// width; a value beyond it saturates at the nearest bound, never wraps:
///  * target_view and entered_view are kept as i32 offsets from from_view;
///  * the duration is u32 microseconds (about 71 minutes), and a negative
///    one (a clock that stepped back) reads as zero;
///  * msgs_sent, bytes_sent (4 GiB) and each authenticator count are u32.
/// start, from_view and node are stored whole. Unpacking always yields a
/// completed span.
class PackedSpan {
 public:
  explicit PackedSpan(const SyncSpan& span) noexcept;
  [[nodiscard]] SyncSpan unpack() const noexcept;

 private:
  std::int64_t start_;
  View from_view_;
  std::int32_t target_offset_;
  std::int32_t entered_offset_;
  ProcessId node_;
  std::uint32_t duration_us_;
  std::uint32_t msgs_;
  std::uint32_t bytes_;
  std::array<std::uint32_t, 6> auth_;  ///< AuthOpSnapshot's fields, in order
};
static_assert(sizeof(PackedSpan) == 64);

/// A read-only, oldest-first view of a completed-span ring that yields
/// SyncSpan values, unpacked one at a time: reading it never expands the
/// ring. Valid until the ring next changes.
class CompletedSpans {
 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = SyncSpan;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = SyncSpan;

    iterator() = default;
    SyncSpan operator*() const { return it_->unpack(); }
    iterator& operator++() {
      ++it_;
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++it_;
      return before;
    }
    bool operator==(const iterator&) const = default;

   private:
    friend class CompletedSpans;
    explicit iterator(std::deque<PackedSpan>::const_iterator it) : it_(it) {}
    std::deque<PackedSpan>::const_iterator it_;
  };

  /// `ring` holds the spans oldest first.
  explicit CompletedSpans(const std::deque<PackedSpan>& ring) noexcept : ring_(&ring) {}

  [[nodiscard]] std::size_t size() const noexcept { return ring_->size(); }
  [[nodiscard]] bool empty() const noexcept { return ring_->empty(); }
  [[nodiscard]] SyncSpan operator[](std::size_t i) const { return (*ring_)[i].unpack(); }
  [[nodiscard]] SyncSpan front() const { return ring_->front().unpack(); }
  [[nodiscard]] SyncSpan back() const { return ring_->back().unpack(); }
  [[nodiscard]] iterator begin() const { return iterator(ring_->cbegin()); }
  [[nodiscard]] iterator end() const { return iterator(ring_->cend()); }

 private:
  const std::deque<PackedSpan>* ring_;
};

}  // namespace lumiere::obs
