// The partial-synchrony message layer (Section 2).
//
// Point-to-point authenticated channels between n processors. The
// adversary (a DelayPolicy) proposes per-message delays; the network
// enforces the model guarantee that a message sent at time t is delivered
// by max(GST, t) + Delta. Messages a processor sends to itself are
// delivered immediately (the paper's convention, Section 4).
//
// Link state is scriptable over time (sim/fault_schedule.h): partitions
// cut groups apart and PARK cross-cut traffic until heal (delayed, never
// destroyed — the adversary's power in this model); crashes cut one
// processor both ways and LOSE its traffic; the global delay policy and
// individual directed links can be re-pointed mid-run. Clusters drive
// these transitions from a FaultSchedule; tests may call the setters
// directly.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/params.h"
#include "common/rng.h"
#include "common/time.h"
#include "common/types.h"
#include "ser/message.h"
#include "sim/delay_policy.h"
#include "sim/fault_schedule.h"
#include "sim/simulator.h"
#include "sim/transport_iface.h"

namespace lumiere::sim {

/// The transport's send tap: sees each copy a processor puts on the wire
/// to another processor exactly once, after the sender's down filter and
/// before any cut parks or drops it. Self-copies are not network traffic
/// and are never observed. Both transports call it (this Network and
/// transport::TcpTransportAdapter); production installs
/// runtime::SendTap (runtime/node_host.h).
class NetworkObserver {
 public:
  virtual ~NetworkObserver() = default;
  virtual void on_send(TimePoint at, ProcessId from, ProcessId to, const Message& msg) = 0;
};

class Network final : public MessageTransport {
 public:
  /// `gst` and `delta_cap` define the partial-synchrony envelope;
  /// `policy` is the adversary's delay choice (may be null => all
  /// messages take the full allowed bound, the worst permitted case).
  Network(Simulator* sim, std::uint32_t n, TimePoint gst, Duration delta_cap,
          std::shared_ptr<DelayPolicy> policy, std::uint64_t seed);

  using DeliverFn = MessageTransport::DeliverFn;

  /// Binds the receive callback for processor `id`. Must be called once
  /// per processor before any traffic flows to it.
  void register_endpoint(ProcessId id, DeliverFn fn) override;

  /// Point-to-point send. Self-sends deliver at the current instant.
  void send(ProcessId from, ProcessId to, MessagePtr msg) override;

  void set_observer(NetworkObserver* observer) noexcept { observer_ = observer; }

  // ---- scriptable link state (the fault-schedule executor) -------------

  /// Applies one scripted event at the current instant.
  void apply(const FaultEvent& event);

  /// Cuts links between distinct groups; cross-cut sends park until
  /// heal(). Nodes appearing in no group keep all their links.
  void set_partition(const std::vector<std::vector<ProcessId>>& groups);
  /// One-way cut: sends from any node in `from` to any node in `to` park
  /// until heal(); the reverse direction flows. Independent of the
  /// symmetric partition layer; a new call replaces the active asym cut.
  void set_asym_partition(const std::vector<ProcessId>& from,
                          const std::vector<ProcessId>& to);
  /// Removes the active partition (symmetric and asymmetric) and releases
  /// parked traffic (delivered from the current instant under the usual
  /// delay computation). No-op when no partition is active.
  void heal();
  /// `down = true` takes `id` down (crash / churn-leave): it emits
  /// nothing, and anything arriving while it is down is lost. `false`
  /// readmits it. Local protocol state is untouched; down-ness is checked
  /// at the sender on send and at the receiver on delivery, so a message
  /// in flight (or parked) across a crash window that has ended by its
  /// arrival is still delivered.
  void set_down(ProcessId id, bool down);
  /// Replaces the adversary's global delay policy from now on.
  void set_delay_policy(std::shared_ptr<DelayPolicy> policy);
  /// Overrides the directed link from->to (nullptr restores the global
  /// policy for that link).
  void set_link_delay(ProcessId from, ProcessId to, std::shared_ptr<DelayPolicy> policy);

  /// Cuts a processor off permanently (legacy crash simulation; equals
  /// set_down(id, true)).
  void disconnect(ProcessId id);
  [[nodiscard]] bool disconnected(ProcessId id) const { return down_[id]; }

  [[nodiscard]] bool partition_active() const noexcept { return partition_active_; }
  [[nodiscard]] bool asym_partition_active() const noexcept { return asym_active_; }
  /// Cross-partition messages currently parked awaiting heal().
  [[nodiscard]] std::size_t parked_count() const noexcept { return parked_.size(); }

  [[nodiscard]] TimePoint gst() const noexcept { return gst_; }
  [[nodiscard]] Duration delta_cap() const noexcept { return delta_cap_; }
  [[nodiscard]] std::uint32_t n() const noexcept {
    return static_cast<std::uint32_t>(endpoints_.size());
  }

 private:
  struct Parked {
    ProcessId from;
    ProcessId to;
    MessagePtr msg;
  };

  /// A pooled in-flight delivery. Scheduling one send captures only this
  /// record's pointer (8 bytes, always inline in EventFn) and fires one
  /// shared trampoline; the record recycles through delivery_free_ so the
  /// steady-state send path performs no allocation.
  struct Delivery {
    Network* net = nullptr;
    ProcessId from = kNoProcess;
    ProcessId to = kNoProcess;
    MessagePtr msg;
  };

  /// True when an active partition separates `from` and `to`.
  [[nodiscard]] bool cut(ProcessId from, ProcessId to) const;
  /// Parks (under an active cut) or schedules a non-self message already
  /// shown to the observer.
  void route(ProcessId from, ProcessId to, MessagePtr msg);
  /// Computes the clamped delivery instant for a message sent now and
  /// schedules it.
  void schedule_delivery(ProcessId from, ProcessId to, MessagePtr msg);
  /// Schedules a pooled delivery of `msg` firing at `at`.
  void schedule_pooled(TimePoint at, ProcessId from, ProcessId to, MessagePtr msg);
  /// The shared trampoline: delivers, then recycles the record.
  void run_delivery(Delivery* record);
  void deliver(ProcessId from, ProcessId to, const MessagePtr& msg);

  Simulator* sim_;
  TimePoint gst_;
  Duration delta_cap_;
  std::shared_ptr<DelayPolicy> policy_;
  Rng rng_;
  std::vector<DeliverFn> endpoints_;
  std::vector<bool> down_;
  /// Partition group per node; kUngrouped = in no group (fully connected).
  bool partition_active_ = false;
  std::vector<std::uint32_t> group_;
  /// One-way cut membership (asym_from_[a] && asym_to_[b] => a->b parks).
  bool asym_active_ = false;
  std::vector<bool> asym_from_;
  std::vector<bool> asym_to_;
  /// Cross-partition traffic awaiting heal, in send order.
  std::vector<Parked> parked_;
  /// Directed per-link delay overrides (win over policy_).
  std::map<std::pair<ProcessId, ProcessId>, std::shared_ptr<DelayPolicy>> link_policy_;
  NetworkObserver* observer_ = nullptr;
  /// Delivery-record pool. Deque: records are referenced by scheduled
  /// events, so growth must not move existing records.
  std::deque<Delivery> delivery_slab_;
  std::vector<Delivery*> delivery_free_;
};

}  // namespace lumiere::sim
