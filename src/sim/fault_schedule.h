// Fault schedules: a time-indexed script of network/membership events.
//
// The paper's headline stories — "an asynchronous interval, then GST",
// region outages, rolling restarts — are all *sequences* of network
// regimes, not a single static delay policy. A FaultSchedule captures one
// such sequence as data: partitions that later heal, processors that crash
// and recover (or leave and rejoin — churn), and delay-policy changes that
// apply globally or to one directed link from a given instant.
//
// Semantics (enforced by sim::Network, which executes the script):
//   * partition(groups)  — links between different groups are CUT. A
//     message sent across the cut is PARKED, not lost: the partial
//     synchrony adversary may delay but never destroy honest messages, so
//     parked traffic is delivered when the partition heals (at the heal
//     instant, in deterministic send order). Links inside one group — and
//     links touching nodes listed in no group — are unaffected.
//   * asym_partition(from, to) — a ONE-WAY cut: messages from any node in
//     `from` to any node in `to` park; the reverse direction flows. The
//     asymmetric layer is independent of the symmetric partition (both may
//     be active at once); a new asym cut replaces the previous one.
//   * heal               — removes the active partition (symmetric AND
//     asymmetric) and releases every parked message. Healing with no
//     active partition is a no-op (a schedule may heal defensively).
//   * crash(node)        — the processor is down: it emits nothing, and
//     messages ARRIVING while it is down are LOST, not parked (its
//     inbound mail dies with it; in-flight or parked traffic whose
//     arrival postdates a recover is still delivered). Local protocol
//     state persists — on recover(node) it rejoins behind and catches up
//     through the protocol, like a machine whose NIC died and came back.
//   * churn leave/rejoin — alias of crash/recover recorded distinctly in
//     the trace; use ScenarioBuilder::churn() to script it.
//   * delay changes      — replace the adversary's global DelayPolicy, or
//     override one directed link, from the event instant onward. The
//     network still clamps every delivery to max(GST, t) + Delta.
//   * behavior changes   — swap the named adversary::Behavior a node runs
//     from the event instant onward (scripted mid-run Byzantine flips;
//     executed by the Cluster, not the network, which ignores it).
//
// Schedules are validated by ScenarioBuilder::validate() (ids in range,
// monotone times, well-formed partitions) and executed deterministically:
// same seed + same schedule => same trace, including events that coincide
// at one timestamp (they fire in declaration order).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/time.h"
#include "common/types.h"
#include "sim/delay_policy.h"

namespace lumiere::sim {

enum class FaultKind : std::uint8_t {
  kPartition,       ///< cut links between `groups`; park cross-cut traffic
  kHeal,            ///< remove active partitions, release parked traffic
  kCrash,           ///< cut `node` both ways; its traffic is lost
  kRecover,         ///< readmit `node`
  kLeave,           ///< churn: `node` leaves (crash semantics, distinct trace)
  kRejoin,          ///< churn: `node` rejoins
  kDelayChange,     ///< swap the global delay policy for `delay`
  kLinkDelay,       ///< override the directed link `node` -> `peer` with `delay`
  kAsymPartition,   ///< one-way cut groups[0] -> groups[1]; park that direction
  kBehaviorChange,  ///< `node` switches to the behavior named `behavior`
};

[[nodiscard]] const char* to_string(FaultKind kind);

/// One scripted event. Which fields are meaningful depends on `kind`.
struct FaultEvent {
  TimePoint at;
  FaultKind kind = FaultKind::kHeal;
  /// kPartition: the disjoint groups that stay internally connected.
  /// kAsymPartition: exactly two groups — senders, then receivers, of the
  /// one-way cut (a node may appear on both sides).
  std::vector<std::vector<ProcessId>> groups;
  /// kCrash/kRecover/kLeave/kRejoin/kBehaviorChange: the affected
  /// processor. kLinkDelay: the sender.
  ProcessId node = kNoProcess;
  /// kLinkDelay: the receiver.
  ProcessId peer = kNoProcess;
  /// kDelayChange/kLinkDelay: the policy applying from `at` onward
  /// (nullptr = the worst permitted: every message at max(GST, t) + Delta).
  std::shared_ptr<DelayPolicy> delay;
  /// kBehaviorChange: the adversary::make_behavior name the node switches
  /// to ("honest" scripts a repentant node).
  std::string behavior;
};

/// The script: events in non-decreasing time order (ScenarioBuilder
/// rejects out-of-order declarations so a reader can scan a scenario
/// top-to-bottom as a timeline).
struct FaultSchedule {
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }

  /// One-line description of `event` for traces and error messages,
  /// e.g. "partition{0 1|2 3} @2000000us" or "crash p3 @0us".
  [[nodiscard]] static std::string describe(const FaultEvent& event);
};

/// Sentinel for "in no partition group": such a node keeps all its links.
inline constexpr std::uint32_t kUngrouped = static_cast<std::uint32_t>(-1);

/// Per-node group index from a partition event's groups (kUngrouped for
/// nodes listed in no group). Shared by the sim network and the TCP
/// analogue so the two transports cannot disagree on what a cut means.
[[nodiscard]] std::vector<std::uint32_t> partition_group_of(
    const std::vector<std::vector<ProcessId>>& groups, std::uint32_t n);

/// True when an active partition with this group map separates a and b.
[[nodiscard]] inline bool partition_cuts(const std::vector<std::uint32_t>& group_of,
                                         ProcessId a, ProcessId b) {
  return group_of[a] != kUngrouped && group_of[b] != kUngrouped && group_of[a] != group_of[b];
}

}  // namespace lumiere::sim
