// Running the full protocol stack over real sockets in real time.
//
// The deterministic simulator is the primary harness — it is the only way
// to control the partial-synchrony adversary. But a pacemaker that only
// ever ran under a simulated clock would leave the paper's "Practical"
// claim untested. This module closes the loop:
//
//   * TcpTransportAdapter — a MessageTransport whose sends travel as
//     length-prefixed frames over localhost TCP (transport/tcp_transport);
//   * RealtimeDriver — paces a node's private Simulator against the wall
//     clock (1 simulated microsecond = 1 real microsecond) while pumping
//     the socket, so LocalClock alarms, pacemaker timers and the Delta
//     bound all refer to real time.
//
// One thread per node; the PKI is shared read-only. See
// examples/tcp_lumiere.cpp and tests/transport/realtime_test.cpp.
#pragma once

#include <chrono>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/transport_iface.h"
#include "transport/tcp_transport.h"

namespace lumiere::transport {

/// One node's traffic to other processes, as its adapter and endpoint saw
/// it (TcpTransportAdapter::send_counts).
struct SendCounts {
  /// Messages the node sent to other processes. A broadcast's peer copies
  /// reach the adapter back to back and count once.
  std::uint64_t messages = 0;
  /// Of those, the ones sent to two or more other processes.
  std::uint64_t broadcasts = 0;
  /// Frames the endpoint queued for peers (TcpEndpoint::frames_sent).
  std::uint64_t copies = 0;
  /// Encodes those frames took (TcpEndpoint::frames_encoded). At most
  /// `messages` while no per-link delay parks a copy (set_link_delay):
  /// a parked copy leaves between other messages' copies and is encoded
  /// again. Copies cut, shaped away or unreachable take no encode.
  std::uint64_t encodes = 0;

  SendCounts& operator+=(const SendCounts& other) noexcept {
    messages += other.messages;
    broadcasts += other.broadcasts;
    copies += other.copies;
    encodes += other.encodes;
    return *this;
  }
};

/// Adapts one process's TcpEndpoint to the MessageTransport seam a Node
/// expects. Hosts exactly one processor (`self`); `send` must originate
/// from it. A copy to `self` is received at the current instant of the
/// node's simulator (set_shaping), like the sim network's self-delivery,
/// never inline — so set_shaping comes before the first send. It is
/// handed over as the same MessagePtr, never encoded or framed.
class TcpTransportAdapter final : public MessageTransport {
 public:
  TcpTransportAdapter(ProcessId self, std::uint32_t n, std::uint16_t base_port,
                      MessageCodec codec);

  void register_endpoint(ProcessId id, DeliverFn fn) override;
  void send(ProcessId from, ProcessId to, MessagePtr msg) override;

  /// Shows each copy sent to a peer to `observer` (sim::NetworkObserver's
  /// charge point), stamped with the simulator set_shaping installed, so
  /// charges carry the node's own sim instant. Call set_shaping first.
  /// The observer must be thread-safe — every node's driver thread
  /// charges the same collector concurrently.
  void set_observer(sim::NetworkObserver* observer);

  /// Delivers an already-decoded message through the same inbound gate as
  /// the socket path (partition/down filters). The verification pipeline's
  /// drain step calls this from the node's driver thread.
  void deliver_decoded(ProcessId from, const MessagePtr& msg);

  // Best-effort fault-schedule analogue (NodeHost::apply_fault in
  // runtime/node_host.cpp, scheduled on the node's private simulator, so
  // all calls happen on the node's own driver thread). Unlike the sim network, cut frames are
  // LOST, not parked — a real network drops partitioned traffic.
  /// Cuts (or restores) the link to `peer` for an active partition.
  void set_partition_cut(ProcessId peer, bool cut);
  /// Drops (or accepts) inbound frames from `peer` only — the receiving
  /// half of an asymmetric one-way cut (this node's sends still flow).
  void set_inbound_cut(ProcessId peer, bool cut);
  /// Restores every link cut by set_partition_cut / set_inbound_cut
  /// (heal).
  void clear_partition();
  /// Marks a remote peer down (its frames are dropped both ways).
  void set_peer_down(ProcessId peer, bool down);
  /// Takes this node itself down (every frame dropped) / back up.
  void set_self_down(bool down);

  // Runtime traffic shaping — the TCP analogue of the sim adversary's
  // per-link delays, driven by admin commands (obs/admin.h). All calls
  // happen on the node's own driver thread, like the fault methods above.
  /// Enables shaping: `sim` (the node's private simulator) schedules
  /// self-deliveries and delayed sends and stamps observed sends; `seed`
  /// feeds the drop-decision RNG.
  void set_shaping(sim::Simulator* sim, std::uint64_t seed);
  /// Drops outbound frames to `peer` with the given probability.
  void set_link_drop(ProcessId peer, double probability);
  /// Delays outbound frames to `peer` by `delay` (zero = undelayed).
  void set_link_delay(ProcessId peer, Duration delay);
  /// Cuts this node off from every peer, both directions, while its own
  /// protocol loop (and self-delivery) keeps running — unlike
  /// set_self_down, an isolated node still times out, syncs and serves
  /// its status endpoint meaningfully.
  void set_isolated(bool isolated);
  /// Clears isolation and every per-link drop/delay (admin HEAL; the
  /// caller typically also clear_partition()s).
  void clear_shaping();

  [[nodiscard]] TcpEndpoint& endpoint() noexcept { return *endpoint_; }
  [[nodiscard]] const TcpEndpoint& endpoint() const noexcept { return *endpoint_; }
  /// Driver thread, or between RealtimeDriver runs.
  [[nodiscard]] SendCounts send_counts() const noexcept {
    return SendCounts{peer_messages_, broadcasts_, endpoint_->frames_sent(),
                      endpoint_->frames_encoded()};
  }

 private:
  [[nodiscard]] bool blocked(ProcessId peer) const {
    return self_down_ || isolated_ || partition_cut_[peer] || peer_down_[peer];
  }
  /// Applies drop/delay shaping to a peer copy and forwards it to the
  /// endpoint. Returns immediately when the frame is shaped away.
  void shaped_send(ProcessId to, const MessagePtr& msg);

  ProcessId self_;
  std::uint32_t n_;
  DeliverFn deliver_;
  sim::NetworkObserver* observer_ = nullptr;
  std::vector<bool> partition_cut_;
  std::vector<bool> inbound_cut_;
  std::vector<bool> peer_down_;
  bool self_down_ = false;
  bool isolated_ = false;
  /// The node's private simulator (set_shaping): self-delivers, delays
  /// frames, stamps sends.
  sim::Simulator* sim_ = nullptr;
  std::unique_ptr<Rng> shaping_rng_;
  std::vector<double> link_drop_;
  std::vector<Duration> link_delay_;
  std::unique_ptr<TcpEndpoint> endpoint_;
  /// The last message sent to another process and its copies so far.
  MessagePtr last_peer_msg_;
  std::uint32_t last_peer_copies_ = 0;
  std::uint64_t peer_messages_ = 0;
  std::uint64_t broadcasts_ = 0;
};

/// Paces a Simulator against the wall clock while pumping a TcpEndpoint.
class RealtimeDriver {
 public:
  RealtimeDriver(sim::Simulator* sim, TcpEndpoint* endpoint);

  /// Runs for `wall` of real time: simulator events fire when the wall
  /// clock reaches their simulated instant; inbound frames dispatch as
  /// they arrive.
  void run_for(std::chrono::milliseconds wall);

  /// run_for until a fixed wall instant: drivers of one cluster, started
  /// one thread after another, share a deadline and so stop together.
  void run_until(std::chrono::steady_clock::time_point wall_deadline);

  /// Installs a hook invoked once per pacing iteration, after the socket
  /// pump — the verification pipeline drains its egress queue here, on
  /// this driver's thread.
  void set_pump(std::function<void()> pump) { pump_ = std::move(pump); }

 private:
  sim::Simulator* sim_;
  TcpEndpoint* endpoint_;
  std::function<void()> pump_;
  TimePoint sim_anchor_;  ///< sim time corresponding to wall_anchor_
  std::chrono::steady_clock::time_point wall_anchor_;
  bool anchored_ = false;
};

}  // namespace lumiere::transport
