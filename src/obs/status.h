// NodeStatus — one node's point-in-time status, and its line-protocol
// rendering for the status endpoints (obs/status_server.h). The record
// behind it is the SyncTracer's per-node state (obs/tracer.h), which
// builds every NodeStatus on both transports.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/types.h"
#include "obs/span.h"

namespace lumiere::obs {

/// One node's point-in-time status, as served by the endpoint.
struct NodeStatus {
  ProcessId node = kNoProcess;
  View view = 0;
  std::uint64_t height = 0;             ///< blocks committed
  /// View of the most recently committed block. Unlike `height` (a
  /// process-local counter that restarts at zero), this survives a
  /// crash-restart as a monotone progress proxy — the soak orchestrator
  /// keys liveness on it.
  std::uint64_t last_commit_height = 0;
  bool ever_byzantine = false;          ///< node ever ran a non-honest behavior
  std::uint64_t mempool_depth = 0;      ///< pending at the last drain (0 once one finds none)
  std::uint64_t pipeline_queue_depth = 0;///< verify-pipeline frames in flight
  std::uint64_t requests_committed = 0; ///< workload requests completed
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t auth_ops = 0;
  std::optional<SyncSpan> current_sync; ///< open span, live costs
  std::optional<SyncSpan> last_sync;    ///< most recently completed span
};

/// Renders the line-protocol reply body for one STATUS request: one
/// "key value" pair per line, terminated by "END". Spans render as one
/// line each (see README "Observability").
[[nodiscard]] std::string render_status(const NodeStatus& status);

}  // namespace lumiere::obs
