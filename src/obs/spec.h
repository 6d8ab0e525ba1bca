// Observability deployment settings, selected per scenario via
// ScenarioBuilder::observability(). The span tracer and the trace log
// are always on, at their classes' default sizes; what a scenario picks
// is whether its TCP nodes serve status endpoints. See obs/tracer.h for
// what the spans mean and README "Observability" for the status-endpoint
// protocol.
#pragma once

#include <cstdint>
#include <string>

namespace lumiere::obs {

struct ObsSpec {
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
