#include "consensus/kv_store.h"

#include "consensus/mempool.h"
#include "ser/serializer.h"

namespace lumiere::consensus {

namespace {

constexpr std::uint8_t kOpSet = 1;
constexpr std::uint8_t kOpDel = 2;

}  // namespace

std::vector<std::uint8_t> KvStore::set_command(std::string_view key, std::string_view value) {
  ser::Writer w;
  w.u8(kOpSet);
  w.str(key);
  w.str(value);
  return std::move(w).take();
}

std::vector<std::uint8_t> KvStore::del_command(std::string_view key) {
  ser::Writer w;
  w.u8(kOpDel);
  w.str(key);
  return std::move(w).take();
}

bool KvStore::apply_command(std::span<const std::uint8_t> command) {
  if (!apply_one_span(command)) return false;
  ++applied_;
  return true;
}

bool KvStore::apply_one_span(std::span<const std::uint8_t> command) {
  ser::Reader r(command);
  std::uint8_t op = 0;
  std::string key;
  if (!r.u8(op) || !r.str(key)) return false;
  switch (op) {
    case kOpSet: {
      std::string value;
      if (!r.str(value) || !r.exhausted()) return false;
      data_[key] = std::move(value);
      return true;
    }
    case kOpDel:
      if (!r.exhausted()) return false;
      data_.erase(key);
      return true;
    default:
      return false;
  }
}

std::size_t KvStore::apply(std::span<const std::uint8_t> payload) {
  std::size_t applied_now = 0;
  for_each_command(payload, [&](std::span<const std::uint8_t> command) {
    if (apply_one_span(command)) ++applied_now;
  });
  applied_ += applied_now;
  return applied_now;
}

std::optional<std::string> KvStore::get(const std::string& key) const {
  const auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

crypto::Digest KvStore::state_digest() const {
  crypto::Sha256 hasher;
  hasher.update("lumiere.kv");
  for (const auto& [key, value] : data_) {
    ser::Writer w;
    w.str(key);
    w.str(value);
    hasher.update(std::span<const std::uint8_t>(w.data().data(), w.size()));
  }
  return hasher.finish();
}

}  // namespace lumiere::consensus
