// A deterministic key-value state machine executing committed payloads.
//
// The canonical SMR application: commands are "SET key value" / "DEL key"
// strings batched by the Mempool framing. Replicas that execute the same
// committed prefix reach byte-identical states; `state_digest()` gives a
// cheap cross-replica equality check (used by tests and examples).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha256.h"

namespace lumiere::consensus {

class KvStore {
 public:
  /// Command encodings (the examples' client side).
  [[nodiscard]] static std::vector<std::uint8_t> set_command(std::string_view key,
                                                             std::string_view value);
  [[nodiscard]] static std::vector<std::uint8_t> del_command(std::string_view key);

  /// Executes one committed block payload (a Mempool batch). Malformed
  /// commands are skipped deterministically (all replicas skip the same
  /// ones); returns the number of commands applied.
  std::size_t apply(std::span<const std::uint8_t> payload);

  /// Executes a single command (the body of a workload request, already
  /// unwrapped from the batch framing). Returns false on a malformed
  /// command — skipped, deterministically, on every replica.
  bool apply_command(std::span<const std::uint8_t> command);

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] std::uint64_t applied_commands() const noexcept { return applied_; }

  /// Digest over the full sorted state: replicas agree iff equal.
  [[nodiscard]] crypto::Digest state_digest() const;

  [[nodiscard]] const std::map<std::string, std::string>& data() const noexcept { return data_; }

 private:
  bool apply_one_span(std::span<const std::uint8_t> command);

  std::map<std::string, std::string> data_;
  std::uint64_t applied_ = 0;
};

}  // namespace lumiere::consensus
