// Block sync: fetch-on-miss state transfer for the commit walk.
//
// Two wedge states motivate this subsystem (ROADMAP "Block sync for
// rejoining and equivocation-victim replicas"):
//
//   * EQUIVOCATION VICTIM: an honest replica stored the losing variant of
//     an equivocated block; when the certified winner's descendants
//     commit, the walk hits a parent hash the replica never stored and no
//     peer will ever re-send — a permanent stall.
//   * REJOINER: a crashed or killed-and-restarted process missed (or
//     lost) part of the chain; peers only stream new proposals, so that
//     history never arrives on its own.
//
// Every node runs a synchronizer. It is idle — no timers, no messages —
// until a commit walk reports a gap, and it is the only recovery path:
// a rejoiner backfills the full history back to genesis, so every honest
// ledger stays a prefix of the committed chain.
//
// The core's commit walk reports the missing hash (CoreCallbacks::
// fetch_missing); the synchronizer asks one peer at a time for the block
// plus up to kMaxBlocksPerResponse - 1 of its ancestors, rotating to the
// next peer on a retry timer until the block arrives (at most f peers can
// stay silent or lie, so rotation terminates post-GST). Verification is
// purely structural, leaning on content addressing: in a response, the
// first block must hash to the requested digest and each further block
// must hash to its predecessor's parent. The requested digest itself came
// out of a chain under a committing QC, so every block that passes the
// link check is exactly the committed chain's content — no signature
// checks needed, and a forged or unlinked response is rejected by
// construction.
//
// Single-threaded like every protocol engine here: driven entirely by
// on_missing()/on_message() calls and the injected scheduler, so sim runs
// stay deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "common/time.h"
#include "common/types.h"
#include "consensus/block.h"
#include "sync/messages.h"

namespace lumiere::sync {

/// How the synchronizer reaches the outside world. Provided by the
/// runtime Node; plain std::function so tests can drive one directly.
struct SyncCallbacks {
  std::function<void(ProcessId to, MessagePtr msg)> send;
  /// Runs `fn` after `delay` (simulated or real time) — the retry timer.
  /// May be null: then a lost fetch is only re-issued when the commit
  /// walk re-reports the miss.
  std::function<void(Duration delay, std::function<void()> fn)> schedule;
  /// Serve a fetch from the local store (nullptr = unknown block).
  std::function<std::shared_ptr<const consensus::Block>(const crypto::Digest&)> lookup;
  /// A fetched block passed the link check — hand it to the core (store
  /// insert + resume the stalled commit walk). The block is the
  /// response's shared allocation (shared_from_this recovers it).
  std::function<void(const consensus::Block&)> accept;
};

class BlockSynchronizer {
 public:
  BlockSynchronizer(ProcessId self, std::uint32_t n, Duration retry_interval,
                    SyncCallbacks callbacks);

  /// The commit walk hit a locally missing ancestor: fetch `hash` from a
  /// peer. Idempotent while the request is outstanding.
  void on_missing(const crypto::Digest& hash);

  /// Inbound sync traffic (BlockFetchMsg served, BlockRespMsg verified).
  void on_message(ProcessId from, const MessagePtr& msg);

  /// Fetch requests this node sent (including per-peer retries).
  [[nodiscard]] std::uint64_t fetches_sent() const noexcept { return fetches_sent_; }
  /// Fetch requests this node answered with a non-empty chain.
  [[nodiscard]] std::uint64_t fetches_served() const noexcept { return fetches_served_; }
  /// Blocks that passed the link check and were handed to the core.
  [[nodiscard]] std::uint64_t blocks_accepted() const noexcept { return blocks_accepted_; }
  /// Responses dropped: unsolicited, empty, or failing the link check at
  /// the requested block itself.
  [[nodiscard]] std::uint64_t responses_rejected() const noexcept {
    return responses_rejected_;
  }
  /// Requests currently outstanding.
  [[nodiscard]] std::size_t pending() const noexcept { return pending_.size(); }

 private:
  void handle_fetch(ProcessId from, const BlockFetchMsg& msg);
  void handle_response(ProcessId from, const BlockRespMsg& msg);
  void send_fetch(const crypto::Digest& hash, std::uint64_t attempt);
  [[nodiscard]] ProcessId next_peer();

  ProcessId self_;
  std::uint32_t n_;
  Duration retry_interval_;
  SyncCallbacks cb_;

  /// Outstanding requests: hash -> attempt counter. The counter makes
  /// stale retry timers harmless — a timer re-sends only when it still
  /// matches the entry it armed for.
  std::map<crypto::Digest, std::uint64_t> pending_;
  ProcessId rotor_ = 0;

  std::uint64_t fetches_sent_ = 0;
  std::uint64_t fetches_served_ = 0;
  std::uint64_t blocks_accepted_ = 0;
  std::uint64_t responses_rejected_ = 0;
};

}  // namespace lumiere::sync
