// The tagged client request: the unit the workload engine submits,
// batches, commits and measures.
//
// A request is one mempool command: a fixed header identifying the
// issuing client and its sequence number, followed by an opaque body the
// application executes (filler padding by default; KV commands in the
// client-driven KV demo). The (client, seq) tag is what lets the engine
// match a committed command back to its submission instant and charge the
// submit -> commit latency to the right client.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "consensus/request_tag.h"

namespace lumiere::workload {

// The header format (magic, client, seq) is consensus::RequestTag's: the
// chained core reads the tag to keep forwarded requests exactly-once.
using consensus::kRequestHeaderBytes;
using consensus::kRequestMagic;

/// Client ids encode the submitting node: client = (node << 16) | k, so a
/// replica observing a commit knows whether the request is one of its own
/// without any shared state (the TCP transport has none). The node's
/// incarnation i (a restarted process is i = 1, 2, ...) hosts clients
/// k = i * clients_per_node + 0, 1, ...: a new process never reuses the
/// tags of the one before it.
inline constexpr std::uint32_t kClientsPerNodeStride = 1u << 16;

[[nodiscard]] constexpr std::uint32_t client_id(std::uint32_t node, std::uint32_t k) noexcept {
  return node * kClientsPerNodeStride + k;
}
[[nodiscard]] constexpr std::uint32_t client_node(std::uint32_t client) noexcept {
  return client / kClientsPerNodeStride;
}

struct Request {
  std::uint32_t client = 0;
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> body;

  /// Serializes header + body into one mempool command.
  [[nodiscard]] static std::vector<std::uint8_t> encode(std::uint32_t client, std::uint64_t seq,
                                                        std::span<const std::uint8_t> body);

  /// Parses a mempool command; nullopt when it is not a workload request
  /// (wrong magic or truncated header).
  [[nodiscard]] static std::optional<Request> decode(std::span<const std::uint8_t> command);
};

/// Deterministic filler body: `bytes` pseudo-random bytes derived from
/// (client, seq) alone — two runs of the same scenario generate
/// byte-identical requests.
[[nodiscard]] std::vector<std::uint8_t> padding_body(std::uint32_t client, std::uint64_t seq,
                                                     std::size_t bytes);

}  // namespace lumiere::workload
