// Timed protocol wrappers for the traced run.
//
// register_timed("chained-hotstuff", "lumiere") adds "timed:chained-hotstuff"
// and "timed:lumiere" to the ProtocolRegistry. Each factory builds the
// real instance through the registry and wraps it: every virtual call is
// forwarded unchanged, and the handlers (plus the send, drain, commit
// and fetch callbacks the node hands the protocol) run inside a Span of
// their layer. The wrappers draw no randomness and schedule nothing, so a
// traced simulation executes the same events as an untraced one.
#pragma once

#include <string>

namespace lumiere::e2e {

/// The registry name of the timed wrapper around `name`.
[[nodiscard]] std::string timed_name(const std::string& name);

/// Registers the timed wrappers for `core` and `pacemaker` (once each).
void register_timed(const std::string& core, const std::string& pacemaker);

}  // namespace lumiere::e2e
