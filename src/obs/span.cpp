#include "obs/span.h"

#include <algorithm>
#include <limits>

namespace lumiere::obs {

namespace {

constexpr std::uint32_t kU32Max = std::numeric_limits<std::uint32_t>::max();

std::uint32_t saturate_u32(std::uint64_t value) noexcept {
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(value, kU32Max));
}

std::uint32_t saturate_u32(std::int64_t value) noexcept {
  return static_cast<std::uint32_t>(std::clamp<std::int64_t>(value, 0, kU32Max));
}

/// `to - from`, saturated to i32 (the subtraction itself cannot overflow:
/// an overflowing difference saturates by the operands' order).
std::int32_t view_offset(View from, View to) noexcept {
  constexpr View kMin = std::numeric_limits<std::int32_t>::min();
  constexpr View kMax = std::numeric_limits<std::int32_t>::max();
  View diff = 0;
  if (__builtin_sub_overflow(to, from, &diff)) diff = to > from ? kMax : kMin;
  return static_cast<std::int32_t>(std::clamp(diff, kMin, kMax));
}

}  // namespace

PackedSpan::PackedSpan(const SyncSpan& span) noexcept
    : start_(span.start.ticks()),
      from_view_(span.from_view),
      target_offset_(view_offset(span.from_view, span.target_view)),
      entered_offset_(view_offset(span.from_view, span.entered_view)),
      node_(span.node),
      duration_us_(saturate_u32(span.duration().ticks())),
      msgs_(saturate_u32(span.msgs_sent)),
      bytes_(saturate_u32(span.bytes_sent)),
      auth_{saturate_u32(span.auth.signs), saturate_u32(span.auth.shares),
            saturate_u32(span.auth.verifies), saturate_u32(span.auth.share_verifies),
            saturate_u32(span.auth.aggregate_verifies),
            saturate_u32(span.auth.aggregates_built)} {}

SyncSpan PackedSpan::unpack() const noexcept {
  // Neither sum can overflow: a saturated offset or duration lies between
  // the stored base and the original (representable) value.
  SyncSpan span;
  span.node = node_;
  span.from_view = from_view_;
  span.target_view = from_view_ + target_offset_;
  span.entered_view = from_view_ + entered_offset_;
  span.start = TimePoint(start_);
  span.end = span.start + Duration(duration_us_);
  span.msgs_sent = msgs_;
  span.bytes_sent = bytes_;
  span.auth.signs = auth_[0];
  span.auth.shares = auth_[1];
  span.auth.verifies = auth_[2];
  span.auth.share_verifies = auth_[3];
  span.auth.aggregate_verifies = auth_[4];
  span.auth.aggregates_built = auth_[5];
  span.completed = true;
  return span;
}

}  // namespace lumiere::obs
