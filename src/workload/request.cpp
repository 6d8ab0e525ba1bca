#include "workload/request.h"

#include "common/rng.h"
#include "ser/serializer.h"

namespace lumiere::workload {

std::vector<std::uint8_t> Request::encode(std::uint32_t client, std::uint64_t seq,
                                          std::span<const std::uint8_t> body) {
  ser::Writer w(kRequestHeaderBytes + body.size());
  w.u8(kRequestMagic);
  w.u32(client);
  w.u64(seq);
  for (const std::uint8_t b : body) w.u8(b);
  return std::move(w).take();
}

std::optional<Request> Request::decode(std::span<const std::uint8_t> command) {
  const auto tag = consensus::request_tag(command);
  if (!tag) return std::nullopt;
  Request request;
  request.client = tag->client;
  request.seq = tag->seq;
  request.body.assign(command.begin() + kRequestHeaderBytes, command.end());
  return request;
}

std::vector<std::uint8_t> padding_body(std::uint32_t client, std::uint64_t seq,
                                       std::size_t bytes) {
  std::vector<std::uint8_t> body(bytes);
  std::uint64_t state = (static_cast<std::uint64_t>(client) << 32) ^ seq ^ 0x574c4f4144ULL;
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    if (i % 8 == 0) word = splitmix64(state);
    body[i] = static_cast<std::uint8_t>(word >> (8 * (i % 8)));
  }
  return body;
}

}  // namespace lumiere::workload
