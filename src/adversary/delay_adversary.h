// Adversarial delay policies (the network half of the adversary).
#pragma once

#include <vector>

#include "sim/delay_policy.h"

namespace lumiere::adversary {

/// Every message takes the maximum the model permits: delivery exactly at
/// max(GST, t) + Delta. (Propose Duration::max(); the network clamps.)
/// The worst permissible network.
class WorstCaseDelay final : public sim::DelayPolicy {
 public:
  Duration propose_delay(ProcessId, ProcessId, const Message&, TimePoint, Rng&) override {
    return Duration::max();
  }
};

/// Messages touching a victim set crawl at the model bound; all other
/// traffic moves at `fast`. Models targeted link degradation, which the
/// partial-synchrony adversary is free to do.
class TargetedSlowDelay final : public sim::DelayPolicy {
 public:
  TargetedSlowDelay(std::vector<ProcessId> victims, Duration fast)
      : victims_(std::move(victims)), fast_(fast) {}

  Duration propose_delay(ProcessId from, ProcessId to, const Message&, TimePoint,
                         Rng&) override {
    const bool slow = is_victim(from) || is_victim(to);
    return slow ? Duration::max() : fast_;
  }

 private:
  [[nodiscard]] bool is_victim(ProcessId id) const {
    for (const ProcessId v : victims_) {
      if (v == id) return true;
    }
    return false;
  }

  std::vector<ProcessId> victims_;
  Duration fast_;
};

}  // namespace lumiere::adversary
