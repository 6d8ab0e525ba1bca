#include "transport/realtime.h"

#include <algorithm>

#include "common/assert.h"

namespace lumiere::transport {

TcpTransportAdapter::TcpTransportAdapter(ProcessId self, std::uint32_t n,
                                         std::uint16_t base_port, MessageCodec codec)
    : self_(self),
      n_(n),
      partition_cut_(n, false),
      inbound_cut_(n, false),
      peer_down_(n, false),
      link_drop_(n, 0.0),
      link_delay_(n, Duration::zero()) {
  endpoint_ = std::make_unique<TcpEndpoint>(
      self, n, base_port, std::move(codec),
      [this](ProcessId from, const MessagePtr& msg) {
        if (from < n_ && from != self_ && (blocked(from) || inbound_cut_[from])) return;
        if (deliver_) deliver_(from, msg);
      });
}

void TcpTransportAdapter::register_endpoint(ProcessId id, DeliverFn fn) {
  LUMIERE_ASSERT_MSG(id == self_, "adapter hosts exactly one processor");
  deliver_ = std::move(fn);
}

void TcpTransportAdapter::send(ProcessId from, ProcessId to, MessagePtr msg) {
  LUMIERE_ASSERT(from == self_);
  LUMIERE_ASSERT(to < n_);
  if (self_down_) return;  // even self-delivery: process is down
  if (to == self_) {
    // The paper's convention: a processor's message to itself is received
    // immediately. As on the sim network, it is scheduled at the current
    // instant rather than dispatched inline, so handlers never re-enter
    // protocol code mid-broadcast: the rest of a broadcast's copies leave
    // before the node acts on its own. The copy never leaves the process,
    // so it skips the codec: the node receives the message object it sent.
    LUMIERE_ASSERT_MSG(sim_ != nullptr, "set_shaping before sending");
    sim_->schedule_at(sim_->now(), [this, msg = std::move(msg)] {
      if (!self_down_ && deliver_) deliver_(self_, msg);
    });
    return;
  }
  // Charged before the link-cut filter, matching the sim network: the
  // send is real traffic by a correct process whether or not the
  // adversary cuts the wire.
  if (observer_ != nullptr) observer_->on_send(sim_->now(), from, to, *msg);
  if (blocked(to)) return;  // cut link: the frame is lost
  shaped_send(to, msg);
}

void TcpTransportAdapter::shaped_send(ProcessId to, const MessagePtr& msg) {
  if (link_drop_[to] > 0.0 && shaping_rng_ != nullptr &&
      shaping_rng_->next_bool(link_drop_[to])) {
    return;  // shaped away — indistinguishable from a lossy wire
  }
  if (link_delay_[to] > Duration::zero() && sim_ != nullptr) {
    // Park the frame on the node's private simulator; the driver fires
    // it once the wall clock passes the delayed instant. The MessagePtr
    // copy keeps the payload alive until then.
    sim_->schedule_after(link_delay_[to], [this, to, msg] {
      if (!blocked(to)) endpoint_->send(to, *msg);
    });
    return;
  }
  endpoint_->send(to, *msg);
}

void TcpTransportAdapter::set_observer(sim::NetworkObserver* observer) {
  LUMIERE_ASSERT_MSG(observer == nullptr || sim_ != nullptr, "set_shaping before set_observer");
  observer_ = observer;
}

void TcpTransportAdapter::deliver_decoded(ProcessId from, const MessagePtr& msg) {
  if (from < n_ && from != self_ && (blocked(from) || inbound_cut_[from])) return;
  if (deliver_) deliver_(from, msg);
}

void TcpTransportAdapter::set_partition_cut(ProcessId peer, bool cut) {
  LUMIERE_ASSERT(peer < n_);
  partition_cut_[peer] = cut;
}

void TcpTransportAdapter::set_inbound_cut(ProcessId peer, bool cut) {
  LUMIERE_ASSERT(peer < n_);
  inbound_cut_[peer] = cut;
}

void TcpTransportAdapter::clear_partition() {
  std::fill(partition_cut_.begin(), partition_cut_.end(), false);
  std::fill(inbound_cut_.begin(), inbound_cut_.end(), false);
}

void TcpTransportAdapter::set_peer_down(ProcessId peer, bool down) {
  LUMIERE_ASSERT(peer < n_);
  peer_down_[peer] = down;
}

void TcpTransportAdapter::set_self_down(bool down) { self_down_ = down; }

void TcpTransportAdapter::set_shaping(sim::Simulator* sim, std::uint64_t seed) {
  sim_ = sim;
  shaping_rng_ = std::make_unique<Rng>(seed);
}

void TcpTransportAdapter::set_link_drop(ProcessId peer, double probability) {
  LUMIERE_ASSERT(peer < n_);
  link_drop_[peer] = probability;
}

void TcpTransportAdapter::set_link_delay(ProcessId peer, Duration delay) {
  LUMIERE_ASSERT(peer < n_);
  link_delay_[peer] = delay;
}

void TcpTransportAdapter::set_isolated(bool isolated) { isolated_ = isolated; }

void TcpTransportAdapter::clear_shaping() {
  isolated_ = false;
  std::fill(link_drop_.begin(), link_drop_.end(), 0.0);
  std::fill(link_delay_.begin(), link_delay_.end(), Duration::zero());
}

RealtimeDriver::RealtimeDriver(sim::Simulator* sim, TcpEndpoint* endpoint)
    : sim_(sim), endpoint_(endpoint) {
  LUMIERE_ASSERT(sim != nullptr && endpoint != nullptr);
}

void RealtimeDriver::run_for(std::chrono::milliseconds wall) {
  run_until(std::chrono::steady_clock::now() + wall);
}

void RealtimeDriver::run_until(std::chrono::steady_clock::time_point wall_deadline) {
  using Clock = std::chrono::steady_clock;
  if (!anchored_) {
    // First run: the simulator's current instant corresponds to "now" on
    // the wall. Subsequent runs continue the same mapping so LocalClock
    // readings stay continuous across calls.
    sim_anchor_ = sim_->now();
    wall_anchor_ = Clock::now();
    anchored_ = true;
  }
  while (Clock::now() < wall_deadline) {
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        Clock::now() - wall_anchor_);
    const TimePoint sim_target = sim_anchor_ + Duration(elapsed.count());
    // Fire everything whose simulated instant the wall clock has passed.
    sim_->run_until(sim_target);
    // Pump the socket until the next simulator event is due (capped at
    // 1ms so new inbound frames keep latency low and the wall deadline
    // stays honored).
    int timeout_ms = 1;
    if (!sim_->idle()) {
      const Duration until_next = sim_->next_event_time() - sim_target;
      timeout_ms = static_cast<int>(
          std::clamp<std::int64_t>(until_next.ticks() / 1000, 0, 1));
    }
    endpoint_->poll_once(timeout_ms);
    if (pump_) pump_();
  }
}

}  // namespace lumiere::transport
