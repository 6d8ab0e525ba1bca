// The message-layer seam between protocol stacks and the world.
//
// A Node talks to its peers through this interface only: it registers
// its receive callback, then sends point to point. There is no bulk
// broadcast here; Node::outbound_broadcast sends one copy per recipient
// (self included, the paper's convention) so a Byzantine behavior can
// filter each destination. Two implementations exist:
//   * sim::Network — the deterministic partial-synchrony simulator (the
//     primary harness; the only way to control the adversary);
//   * transport::TcpTransportAdapter — real framed bytes over localhost
//     TCP, driven in wall-clock time (transport/realtime.h).
#pragma once

#include <functional>

#include "common/types.h"
#include "ser/message.h"

namespace lumiere {

class MessageTransport {
 public:
  using DeliverFn = std::function<void(ProcessId from, const MessagePtr& msg)>;

  virtual ~MessageTransport() = default;

  /// Binds the receive callback for processor `id`. Must be called once
  /// per hosted processor before any traffic flows to it.
  virtual void register_endpoint(ProcessId id, DeliverFn fn) = 0;

  /// Point-to-point send. Self-sends must deliver (the paper's
  /// convention: a broadcast includes the sender).
  virtual void send(ProcessId from, ProcessId to, MessagePtr msg) = 0;
};

}  // namespace lumiere
