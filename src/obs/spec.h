// Observability configuration, selected per scenario via
// ScenarioBuilder::observability(). See obs/tracer.h for what the spans
// mean and README "Observability" for the status-endpoint protocol.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace lumiere::obs {

struct ObsSpec {
  /// The view-sync span tracer. Default-on: it is passive (no RNG draws,
  /// no scheduled events), so golden digests are byte-identical either
  /// way — turning it off only saves the bookkeeping.
  bool tracer = true;

  /// Completed spans kept per cluster; older spans are dropped FIFO.
  /// Zero means unbounded (benches that export every span use that).
  /// Each kept span costs 64 bytes (a full default ring, 4 MiB); counts
  /// and view offsets beyond their packed widths saturate (obs/span.h).
  std::size_t max_spans = 1 << 16;

  /// Capacity handed to the cluster's sim::TraceLog ring buffer.
  /// Zero keeps the TraceLog default.
  std::size_t trace_capacity = 0;

  /// When non-zero (TCP transport only), each node i serves the line
  /// protocol on status_base_port + i. Zero disables the endpoints.
  std::uint16_t status_base_port = 0;

  /// When non-empty, the status endpoints accept runtime admin commands
  /// (obs/admin.h) from sessions that first send "AUTH <admin_token>".
  /// Empty disables the admin control plane entirely — STATUS/PING only.
  /// Requires status_base_port != 0.
  std::string admin_token;
};

}  // namespace lumiere::obs
