// The success criterion of Section 4:
//
//   "Processor p sets success(e) := 1 upon seeing at least 2f+1 distinct
//    processors each produce 10 QCs for views in the epoch."
//
// A processor "produces" a QC when it is the leader of the view the QC
// certifies. Because each processor leads exactly 10 views per epoch, a
// leader counts toward the criterion only if *every* view it led
// produced a QC — Byzantine leaders cannot be over-represented (the §3.5
// discussion of why the criterion must be this strict).
//
// A view counts at most once, however many copies of its QC arrive: the
// dedup guards the criterion against over-counting, so it is safety
// code. It is a ViewSet bitmap rather than a tree node per view, so a
// long run pays a few bits per view for it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/params.h"
#include "common/types.h"
#include "common/view_set.h"
#include "core/epoch_math.h"

namespace lumiere::core {

class SuccessTracker {
 public:
  using LeaderFn = std::function<ProcessId(View)>;
  /// Invoked exactly once when success(e) flips 0 -> 1.
  using SuccessFn = std::function<void(Epoch e)>;

  SuccessTracker(const ProtocolParams& params, const EpochMath* math, LeaderFn leader_of,
                 SuccessFn on_success)
      : params_(params),
        math_(math),
        leader_of_(std::move(leader_of)),
        on_success_(std::move(on_success)) {
    LUMIERE_ASSERT(math != nullptr);
  }

  /// Records that a QC for view v has been observed. Idempotent per view.
  void record_qc(View v) {
    if (v < 0) return;
    const Epoch e = math_->epoch_of(v);
    if (succeeded_.contains(e)) return;
    if (!seen_views_.insert(v)) return;
    auto& count = qc_counts_[e][leader_of_(v)];
    ++count;
    if (count == EpochMath::kViewsPerLeaderPerEpoch) {
      auto& done = leaders_done_[e];
      ++done;
      if (done >= params_.quorum()) {
        succeeded_.insert(e);
        qc_counts_.erase(e);
        if (on_success_) on_success_(e);
      }
    }
  }

  /// success(e) — initially 0 for every epoch, including e = -1.
  [[nodiscard]] bool success(Epoch e) const { return succeeded_.contains(e); }

  /// Number of distinct leaders with all 10 QCs so far in epoch e.
  [[nodiscard]] std::uint32_t leaders_done(Epoch e) const {
    const auto it = leaders_done_.find(e);
    return it == leaders_done_.end() ? 0 : it->second;
  }

 private:
  ProtocolParams params_;
  const EpochMath* math_;
  LeaderFn leader_of_;
  SuccessFn on_success_;
  ViewSet seen_views_;
  std::map<Epoch, std::map<ProcessId, std::uint32_t>> qc_counts_;
  std::map<Epoch, std::uint32_t> leaders_done_;
  std::set<Epoch> succeeded_;
};

}  // namespace lumiere::core
