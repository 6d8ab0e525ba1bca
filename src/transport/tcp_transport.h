// A minimal real-network transport: length-prefixed frames over localhost
// TCP, single-threaded, poll(2)-driven.
//
// The protocol stack in this repository is transport-agnostic — nodes
// talk through std::function send/broadcast closures, and a broadcast
// reaches this endpoint as one send() per recipient, all with the same
// MessagePtr. Copies that leave back to back share one encode; a copy
// parked by a per-link delay (TcpTransportAdapter::set_link_delay) leaves
// later, between other messages' copies, and is encoded again. The
// deterministic simulator is the primary harness (it is the only way to
// control the partial-synchrony adversary); this transport exists to
// demonstrate the same message types flowing over real sockets
// (examples/tcp_cluster) and to keep the serialization layer honest
// end-to-end.
//
// Frame format: [u32 payload_len][u32 sender_id][payload bytes], where
// payload = MessageCodec::encode(msg) = [u32 type_id][body].
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/types.h"
#include "ser/message.h"
#include "transport/backoff.h"

namespace lumiere::transport {

/// One process's socket endpoint within a statically known cluster of n
/// peers on 127.0.0.1 ports [base_port, base_port + n).
class TcpEndpoint {
 public:
  using ReceiveFn = std::function<void(ProcessId from, const MessagePtr& msg)>;
  /// Raw-frame intercept for the staged verification pipeline
  /// (runtime/pipeline.h): gets each complete inbound frame payload
  /// before decode. Return true to consume it (the pipeline decodes and
  /// delivers later); false to fall back to the inline decode+dispatch
  /// path (e.g. the pipeline is stopped).
  using RawSinkFn = std::function<bool(ProcessId from, std::span<const std::uint8_t> payload)>;

  /// Binds and listens on base_port + self. Throws std::runtime_error on
  /// socket failures (configuration errors, not protocol conditions).
  TcpEndpoint(ProcessId self, std::uint32_t n, std::uint16_t base_port, MessageCodec codec,
              ReceiveFn on_receive);
  ~TcpEndpoint();

  TcpEndpoint(const TcpEndpoint&) = delete;
  TcpEndpoint& operator=(const TcpEndpoint&) = delete;

  /// Queues a message to `to`; connects lazily on first use. Send to self
  /// hands `msg` to the receive callback synchronously, without the codec.
  /// A peer copy reuses the previous peer copy's encoding when it carries
  /// the same message: a broadcast's copies, sent back to back, share one
  /// encode.
  void send(ProcessId to, const MessagePtr& msg);

  /// Pumps the socket set once: accepts, flushes queued writes, reads and
  /// dispatches complete frames. Returns the number of frames dispatched.
  std::size_t poll_once(int timeout_ms);

  /// Installs (or clears, with nullptr) the raw-frame intercept. Frames a
  /// processor sends to itself bypass it — self-delivery needs no
  /// signature pre-verification and stays immediate.
  void set_raw_sink(RawSinkFn sink) { raw_sink_ = std::move(sink); }

  /// Replaces the per-peer reconnect backoff policy (transport/backoff.h).
  /// Jitter streams derive from `jitter_seed ^ peer`, so two endpoints
  /// seeded identically draw identical delay sequences. A zero-base
  /// policy disables the gating (every send retries connect()).
  void set_reconnect_backoff(BackoffPolicy policy, std::uint64_t jitter_seed);

  /// Consecutive failed connect attempts toward `to` since the last
  /// success (diagnostics / tests).
  [[nodiscard]] std::uint64_t connect_failures(ProcessId to) const;

  [[nodiscard]] ProcessId self() const noexcept { return self_; }
  [[nodiscard]] std::uint64_t frames_sent() const noexcept { return frames_sent_; }
  /// Messages encoded for peers (a reused peer-copy encoding counts once;
  /// a self copy is never encoded).
  [[nodiscard]] std::uint64_t frames_encoded() const noexcept { return frames_encoded_; }
  /// Bytes framed for peers: per frame the 8-byte header plus the encoded
  /// payload ([u32 type_id][body]). Frames to self cross no socket and
  /// count nothing here (frames_sent() counts them).
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }
  [[nodiscard]] std::uint64_t frames_received() const noexcept { return frames_received_; }

 private:
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> inbox;   // partial frame reassembly
    std::vector<std::uint8_t> outbox;  // unflushed bytes
    ProcessId peer = kNoProcess;       // known after hello / connect
  };

  /// Per-peer reconnect gate: while the wall clock sits before
  /// `next_attempt`, sends to that peer drop without a connect() try.
  struct ReconnectState {
    ReconnectBackoff backoff;
    std::chrono::steady_clock::time_point next_attempt =
        std::chrono::steady_clock::time_point::min();
  };

  void accept_pending();
  [[nodiscard]] Conn* connection_to(ProcessId to);
  void flush(Conn& conn);
  void read_and_dispatch(Conn& conn);
  void close_conn(Conn& conn);
  void enqueue_frame(Conn& conn, std::span<const std::uint8_t> payload);

  ProcessId self_;
  std::uint32_t n_;
  std::uint16_t base_port_;
  MessageCodec codec_;
  ReceiveFn on_receive_;
  RawSinkFn raw_sink_;
  int listen_fd_ = -1;
  BackoffPolicy backoff_policy_;
  std::uint64_t backoff_seed_ = 0;
  std::map<ProcessId, Conn> outgoing_;  // keyed by destination
  std::map<ProcessId, ReconnectState> reconnect_;
  // deque, not vector: poll_once holds Conn* across an accept_pending()
  // push_back, which must not invalidate references to existing elements.
  std::deque<Conn> incoming_;           // accepted connections
  /// The last peer copy's message and its encoding.
  MessagePtr encoded_msg_;
  std::vector<std::uint8_t> encoded_;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_encoded_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t frames_received_ = 0;
};

}  // namespace lumiere::transport
