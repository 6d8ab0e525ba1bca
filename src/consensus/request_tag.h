// Request tags: the (client, seq) identity a tagged client request
// carries in its header, and the bounded index of committed tags.
//
// Forwarded requests (consensus/chained_core.h) can reach a proposer
// more than once: a late NewView attachment is relayed, and its origin
// re-attaches it when a view passes without it. The chained core keeps
// such repeats out of the ledger by tag: a proposer drops, and a voter
// refuses, any tag already in an uncommitted ancestor or in the
// committed-tag index below. The header format is shared with the
// workload engine (workload/request.h builds requests in it).
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>

namespace lumiere::consensus {

/// First byte of every tagged request, so application payloads that are
/// not client requests cannot be mistaken for tagged ones.
inline constexpr std::uint8_t kRequestMagic = 0xC7;

/// Header: magic (u8) + client (u32) + seq (u64).
inline constexpr std::size_t kRequestHeaderBytes = 1 + 4 + 8;

struct RequestTag {
  std::uint32_t client = 0;
  std::uint64_t seq = 0;

  auto operator<=>(const RequestTag&) const = default;
};

/// The tag of a command; nullopt when it is not a tagged request (wrong
/// magic or truncated header).
[[nodiscard]] std::optional<RequestTag> request_tag(std::span<const std::uint8_t> command);

/// Every tag committed so far, in O(clients) memory: clients number
/// their requests 0, 1, 2, ... without gaps (workload/engine.h reuses a
/// shed request's seq), so each client keeps the contiguous committed
/// prefix as one mark plus the few seqs committed above it (out of
/// order, forged ahead of the client, or above a seq that a custom body
/// made oversized).
class CommittedTags {
 public:
  void insert(RequestTag tag);
  [[nodiscard]] bool contains(RequestTag tag) const;

  /// Clients with a committed tag.
  [[nodiscard]] std::size_t clients() const noexcept { return clients_.size(); }
  /// Committed seqs held above their client's mark.
  [[nodiscard]] std::size_t above_marks() const noexcept;

 private:
  struct Client {
    std::uint64_t below = 0;       ///< every seq < below is committed
    std::set<std::uint64_t> above;  ///< committed seqs > below
  };
  std::map<std::uint32_t, Client> clients_;
};

}  // namespace lumiere::consensus
