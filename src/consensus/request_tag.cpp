#include "consensus/request_tag.h"

namespace lumiere::consensus {

std::optional<RequestTag> request_tag(std::span<const std::uint8_t> command) {
  // Hand-decoded (little-endian, as ser::Writer lays it out): the chained
  // core reads the tag of every command on every uncommitted block.
  if (command.size() < kRequestHeaderBytes || command[0] != kRequestMagic) return std::nullopt;
  RequestTag tag;
  for (std::size_t i = 0; i < 4; ++i) {
    tag.client |= static_cast<std::uint32_t>(command[1 + i]) << (8 * i);
  }
  for (std::size_t i = 0; i < 8; ++i) {
    tag.seq |= static_cast<std::uint64_t>(command[5 + i]) << (8 * i);
  }
  return tag;
}

void CommittedTags::insert(RequestTag tag) {
  Client& client = clients_[tag.client];
  if (tag.seq < client.below) return;
  if (tag.seq > client.below) {
    client.above.insert(tag.seq);
    return;
  }
  ++client.below;
  while (!client.above.empty() && *client.above.begin() == client.below) {
    client.above.erase(client.above.begin());
    ++client.below;
  }
}

bool CommittedTags::contains(RequestTag tag) const {
  const auto it = clients_.find(tag.client);
  if (it == clients_.end()) return false;
  return tag.seq < it->second.below || it->second.above.contains(tag.seq);
}

std::size_t CommittedTags::above_marks() const noexcept {
  std::size_t held = 0;
  for (const auto& [id, client] : clients_) held += client.above.size();
  return held;
}

}  // namespace lumiere::consensus
