// Configuration for the data-dissemination layer (Autobahn-style,
// arXiv 2401.10369): replicas stream mempool batches to each other and
// certify availability continuously, so consensus proposals order small
// certified references instead of payload bytes.
#pragma once

#include <cstdint>

#include "common/time.h"

namespace lumiere::dissem {

/// Knobs for one node's Disseminator. The defaults suit the simulated
/// sub-millisecond networks the benches script; all timers run on the
/// deterministic simulator clock.
struct DissemSpec {
  /// Origin cadence: how often a replica drains its mempool into fresh
  /// batches and pushes them to everyone.
  Duration push_interval = Duration::millis(2);
  /// Batches leased per push tick (each becomes one BatchPush broadcast).
  std::uint32_t max_batches_per_tick = 4;
  /// Flow control: stop leasing fresh batches while this many own batches
  /// are still awaiting certification (e.g. the node is cut off from a
  /// small quorum) — backpressure then propagates to the mempool.
  std::uint32_t max_uncertified = 32;
  /// Retry tick cadence — the recovery path through partitions and drops.
  /// Each tick re-fetches unresolved committed references and sends the
  /// due re-pushes (to the peers whose ack is missing) and re-announces
  /// (to the tick's next proposer). This interval is also the first
  /// re-push delay after a push and the first re-announce delay after
  /// certification; each gap then doubles, up to 4 x this interval.
  Duration retry_interval = Duration::millis(50);
  /// Cap on certified references drained into a single proposal.
  std::uint32_t max_refs_per_proposal = 64;
  /// A reference handed to consensus (drained locally or seen in a
  /// proposal) that is still unordered after this long re-enters the
  /// certified queue, so an abandoned proposal cannot lose batches.
  Duration reinsert_timeout = Duration::millis(100);

  bool operator==(const DissemSpec&) const = default;
};

}  // namespace lumiere::dissem
