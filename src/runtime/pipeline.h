// Staged node pipeline: off-thread decode + batch signature verification.
//
// On the TCP transport a node's critical thread (its RealtimeDriver) does
// everything: socket pumping, frame decode, signature checks, consensus,
// execution. With a real signature scheme (anything beyond the
// HMAC sim default) the checks dominate. This module splits the receive path into stages:
//
//   socket read -> [bounded ingress queue] -> worker pool: decode +
//   verify every signature the frame carries -> [egress queue] ->
//   driver thread: seed the node's VerifyMemo, deliver to consensus
//
// The consensus core stays single-threaded and deterministic: workers
// never touch protocol state, they only pre-answer the cryptographic
// yes/no questions the core would ask later (via crypto::AuthView's memo
// path). A claim that fails off-thread is simply not memoized — the core
// re-checks inline and rejects exactly as it would have, so Byzantine
// garbage cannot change accept/reject semantics, only cost.
//
// Frames from different peers may reorder across workers; the protocol
// already tolerates arbitrary network reordering, and the deterministic
// simulator (which pins the golden digests) never runs a pipeline.
//
// Backpressure: the ingress queue is bounded; submit() blocks the socket
// thread when full, which in turn fills the kernel socket buffers and
// stalls the senders — load sheds at the edge instead of ballooning
// memory. stop() unblocks any blocked submitter.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "crypto/authenticator.h"
#include "ser/message.h"

namespace lumiere::runtime {

/// ScenarioBuilder::pipeline() knob: staged verification on the TCP
/// transport. Default-constructed = disabled (the sim transport and all
/// golden digests pin the inline path).
struct PipelineSpec {
  bool enabled = false;
  /// Verification worker threads per node.
  std::uint32_t workers = 4;
  /// Ingress queue bound (frames); submit() blocks when full.
  std::size_t queue_capacity = 1024;
};

/// One node's decode+verify worker pool. Thread roles:
///   * the node's driver thread calls submit() (from the socket read
///     path), drain() (each pump iteration) and start()/stop() (fault
///     schedule);
///   * workers only read the shared Authenticator/MessageCodec (both
///     immutable after construction) and the queues.
class VerifyPipeline {
 public:
  struct Result {
    ProcessId from = kNoProcess;
    MessagePtr msg;
    /// Fingerprints of the claims that verified (crypto/authenticator.h);
    /// the driver thread inserts them into the node's VerifyMemo.
    std::vector<crypto::Digest> fingerprints;
  };

  struct Stats {
    std::uint64_t frames_in = 0;        ///< frames accepted by submit()
    std::uint64_t frames_out = 0;       ///< results handed to drain()
    std::uint64_t decode_failures = 0;  ///< malformed frames dropped
    std::uint64_t claims_checked = 0;   ///< signatures/aggregates verified
    std::uint64_t claims_passed = 0;
    std::uint64_t submit_blocks = 0;    ///< times submit() hit backpressure
  };

  VerifyPipeline(const crypto::Authenticator* auth, MessageCodec codec, PipelineSpec spec);
  ~VerifyPipeline();

  VerifyPipeline(const VerifyPipeline&) = delete;
  VerifyPipeline& operator=(const VerifyPipeline&) = delete;

  /// Spawns the workers (idempotent; restart after stop() is supported —
  /// the fault schedule stops a crashed node's pool and restarts it on
  /// recovery).
  void start();

  /// Joins the workers. Frames still in flight are discarded (a crashed
  /// process loses its unprocessed input). Unblocks pending submit().
  void stop();

  [[nodiscard]] bool running() const;

  /// Queues one raw frame payload for decode+verify. Blocks while the
  /// ingress queue is full and the pipeline is running. Returns false
  /// (payload untouched) when stopped — the caller falls back to inline
  /// handling.
  bool submit(ProcessId from, std::span<const std::uint8_t> payload);

  /// Non-blocking submit: false when full or stopped.
  bool try_submit(ProcessId from, std::span<const std::uint8_t> payload);

  /// Drains every completed result into `fn` on the caller's thread.
  /// Returns the number of results delivered.
  template <typename Fn>
  std::size_t drain(Fn&& fn) {
    std::vector<Result> batch;
    {
      std::lock_guard<std::mutex> lock(egress_mu_);
      batch.swap(egress_);
    }
    for (Result& r : batch) fn(std::move(r));
    return batch.size();
  }

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const PipelineSpec& spec() const noexcept { return spec_; }

 private:
  struct Frame {
    ProcessId from = kNoProcess;
    std::vector<std::uint8_t> payload;
  };

  void worker_loop();
  void process(Frame frame);

  const crypto::Authenticator* auth_;
  MessageCodec codec_;
  PipelineSpec spec_;

  mutable std::mutex ingress_mu_;
  std::condition_variable ingress_cv_;  ///< signaled: frame available or stop
  std::condition_variable space_cv_;    ///< signaled: queue has room
  std::deque<Frame> ingress_;
  bool running_ = false;

  std::mutex egress_mu_;
  std::vector<Result> egress_;

  std::vector<std::thread> workers_;

  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace lumiere::runtime
