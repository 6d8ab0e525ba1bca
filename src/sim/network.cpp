#include "sim/network.h"

#include <algorithm>

#include "common/assert.h"

namespace lumiere::sim {

Network::Network(Simulator* sim, std::uint32_t n, TimePoint gst, Duration delta_cap,
                 std::shared_ptr<DelayPolicy> policy, std::uint64_t seed)
    : sim_(sim),
      gst_(gst),
      delta_cap_(delta_cap),
      policy_(std::move(policy)),
      rng_(seed ^ 0x6e657477726b2121ULL),
      endpoints_(n),
      down_(n, false),
      group_(n, kUngrouped),
      asym_from_(n, false),
      asym_to_(n, false) {
  LUMIERE_ASSERT(sim != nullptr);
  LUMIERE_ASSERT(n > 0);
  LUMIERE_ASSERT(delta_cap > Duration::zero());
}

void Network::register_endpoint(ProcessId id, DeliverFn fn) {
  LUMIERE_ASSERT(id < endpoints_.size());
  LUMIERE_ASSERT_MSG(!endpoints_[id], "endpoint registered twice");
  endpoints_[id] = std::move(fn);
}

bool Network::cut(ProcessId from, ProcessId to) const {
  if (partition_active_ && partition_cuts(group_, from, to)) return true;
  return asym_active_ && asym_from_[from] && asym_to_[to];
}

void Network::send(ProcessId from, ProcessId to, MessagePtr msg) {
  LUMIERE_ASSERT(from < endpoints_.size() && to < endpoints_.size());
  LUMIERE_ASSERT(msg != nullptr);
  if (down_[from]) return;

  if (from == to) {
    // The paper's convention: a processor's message to itself is received
    // immediately. Scheduled at the current instant (not called inline) so
    // handlers never re-enter protocol code.
    schedule_pooled(sim_->now(), from, to, std::move(msg));
    return;
  }

  // A down receiver is NOT checked here: the send is real honest traffic
  // (it must count in the metrics) and the message travels regardless —
  // deliver() drops it iff the receiver is still down at arrival, exactly
  // like any other in-flight message.
  if (observer_ != nullptr) observer_->on_send(sim_->now(), from, to, *msg);
  route(from, to, std::move(msg));
}

void Network::route(ProcessId from, ProcessId to, MessagePtr msg) {
  if (cut(from, to)) {
    // The adversary may delay but never destroy: cross-partition traffic
    // parks and is released by heal(). (Dropping instead would violate
    // the reliable-channel assumption and permanently wedge the
    // epoch-certificate protocols — a lost epoch cert never retransmits.)
    parked_.push_back(Parked{from, to, std::move(msg)});
    return;
  }
  schedule_delivery(from, to, std::move(msg));
}

void Network::schedule_delivery(ProcessId from, ProcessId to, MessagePtr msg) {
  const TimePoint now = sim_->now();
  // The adversary proposes; the model clamps. `latest` is the hard bound
  // max(GST, t) + Delta from Section 2.
  const TimePoint latest = std::max(gst_, now) + delta_cap_;
  DelayPolicy* policy = policy_.get();
  if (!link_policy_.empty()) {  // per-link overrides are rare; skip the map when none
    const auto link = link_policy_.find({from, to});
    if (link != link_policy_.end()) policy = link->second.get();
  }
  Duration proposed =
      policy != nullptr ? policy->propose_delay(from, to, *msg, now, rng_) : Duration::max();
  if (proposed < Duration::zero()) proposed = Duration::zero();
  TimePoint delivery = (proposed == Duration::max()) ? latest : now + proposed;
  if (delivery > latest) delivery = latest;

  schedule_pooled(delivery, from, to, std::move(msg));
}

void Network::schedule_pooled(TimePoint at, ProcessId from, ProcessId to, MessagePtr msg) {
  Delivery* record = nullptr;
  if (!delivery_free_.empty()) {
    record = delivery_free_.back();
    delivery_free_.pop_back();
  } else {
    record = &delivery_slab_.emplace_back();
    record->net = this;
  }
  record->from = from;
  record->to = to;
  record->msg = std::move(msg);
  sim_->post_at(at, [record] { record->net->run_delivery(record); });
}

void Network::run_delivery(Delivery* record) {
  const ProcessId from = record->from;
  const ProcessId to = record->to;
  MessagePtr msg = std::move(record->msg);
  // Recycle before delivering: the handler may send again and reuse the
  // record immediately (the fields are already copied out).
  delivery_free_.push_back(record);
  deliver(from, to, msg);
}

void Network::apply(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kPartition:
      set_partition(event.groups);
      break;
    case FaultKind::kHeal:
      heal();
      break;
    case FaultKind::kCrash:
    case FaultKind::kLeave:
      set_down(event.node, true);
      break;
    case FaultKind::kRecover:
    case FaultKind::kRejoin:
      set_down(event.node, false);
      break;
    case FaultKind::kDelayChange:
      set_delay_policy(event.delay);
      break;
    case FaultKind::kLinkDelay:
      set_link_delay(event.node, event.peer, event.delay);
      break;
    case FaultKind::kAsymPartition:
      LUMIERE_ASSERT_MSG(event.groups.size() == 2,
                         "asym partition needs {senders, receivers} (validate first)");
      set_asym_partition(event.groups[0], event.groups[1]);
      break;
    case FaultKind::kBehaviorChange:
      break;  // executed by the Cluster (the network has no behaviors)
  }
}

void Network::set_partition(const std::vector<std::vector<ProcessId>>& groups) {
  // A new partition replaces any active one; traffic parked under the old
  // cut stays parked until heal() (the links are still down).
  group_ = partition_group_of(groups, static_cast<std::uint32_t>(endpoints_.size()));
  partition_active_ = true;
}

void Network::set_asym_partition(const std::vector<ProcessId>& from,
                                 const std::vector<ProcessId>& to) {
  // A new one-way cut replaces the active one; traffic parked under the
  // old cut stays parked until heal() (the links are still down).
  const auto n = endpoints_.size();
  std::fill(asym_from_.begin(), asym_from_.end(), false);
  std::fill(asym_to_.begin(), asym_to_.end(), false);
  for (const ProcessId id : from) {
    if (id < n) asym_from_[id] = true;
  }
  for (const ProcessId id : to) {
    if (id < n) asym_to_[id] = true;
  }
  asym_active_ = true;
}

void Network::heal() {
  if (!partition_active_ && !asym_active_) return;  // healing a healthy network is a no-op
  partition_active_ = false;
  asym_active_ = false;
  std::fill(group_.begin(), group_.end(), kUngrouped);
  std::fill(asym_from_.begin(), asym_from_.end(), false);
  std::fill(asym_to_.begin(), asym_to_.end(), false);
  // Release ALL parked traffic in send order, as if sent at the heal
  // instant (the adversary delayed each message exactly until the cut
  // lifted). Down endpoints are not special-cased here: deliver() drops a
  // message iff the receiver is down at arrival, the same rule every
  // in-flight message obeys — a crash window that ends before the heal
  // must not destroy a never-retransmitted epoch certificate.
  std::vector<Parked> parked = std::move(parked_);
  parked_.clear();
  for (Parked& p : parked) {
    schedule_delivery(p.from, p.to, std::move(p.msg));
  }
}

void Network::set_down(ProcessId id, bool down) {
  LUMIERE_ASSERT(id < down_.size());
  down_[id] = down;
}

void Network::set_delay_policy(std::shared_ptr<DelayPolicy> policy) {
  policy_ = std::move(policy);
}

void Network::set_link_delay(ProcessId from, ProcessId to, std::shared_ptr<DelayPolicy> policy) {
  LUMIERE_ASSERT(from < endpoints_.size() && to < endpoints_.size());
  if (policy == nullptr) {
    link_policy_.erase({from, to});
  } else {
    link_policy_[{from, to}] = std::move(policy);
  }
}

void Network::disconnect(ProcessId id) { set_down(id, true); }

void Network::deliver(ProcessId from, ProcessId to, const MessagePtr& msg) {
  if (down_[to]) return;
  if (!endpoints_[to]) return;  // endpoint never registered (inactive node)
  endpoints_[to](from, msg);
}

}  // namespace lumiere::sim
