// Minimal binary serialization with explicit wire-size accounting.
//
// Every protocol message in this repository can be flattened to bytes and
// parsed back; the deterministic simulator mostly passes messages by value
// for speed, but (a) the TCP transport needs real frames, (b) the metrics
// layer charges communication by serialized size, and (c) round-trip tests
// catch representational drift between modules.
//
// Encoding: little-endian fixed-width integers, u32-length-prefixed byte
// strings. Readers never throw on malformed input; they return false /
// std::nullopt (truncated or corrupt frames are an expected runtime
// condition on a real network).
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/signer_set.h"
#include "common/time.h"
#include "common/types.h"
#include "crypto/authenticator.h"
#include "crypto/sha256.h"
#include "crypto/sig_wire.h"

namespace lumiere::ser {

/// Largest cluster size (`SignerSet` universe) a decoder will accept from
/// the wire. Bounds the bitmap allocation a single malformed message can
/// trigger; real deployments are orders of magnitude below this.
inline constexpr std::uint32_t kMaxWireUniverse = 1u << 20;

/// Append-only byte sink.
class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t reserve) { bytes_.reserve(reserve); }
  /// Reusable-buffer mode: adopts `reuse`'s storage (cleared, capacity
  /// kept) so hot encode loops amortize to zero allocations. Recover the
  /// buffer afterwards with std::move(w).take().
  explicit Writer(std::vector<std::uint8_t>&& reuse) noexcept : bytes_(std::move(reuse)) {
    bytes_.clear();
  }

  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }

  void boolean(bool v) { u8(v ? 1 : 0); }
  void view(View v) { i64(v); }
  void epoch(Epoch e) { i64(e); }
  void process(ProcessId p) { u32(p); }
  void time_point(TimePoint t) { i64(t.ticks()); }
  void duration(Duration d) { i64(d.ticks()); }

  void bytes(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }
  void str(std::string_view s) {
    bytes(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(s.data()),
                                        s.size()));
  }
  void digest(const crypto::Digest& d) {
    bytes_.insert(bytes_.end(), d.bytes().begin(), d.bytes().end());
  }
  /// Length-prefix-free append; the length must be recoverable by the
  /// reader (fixed by the format or by its SigWireSpec).
  void raw(std::span<const std::uint8_t> data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }
  void signer_set(const SignerSet& set);

  // Signature material ships as raw scheme-length blobs: the reader
  // recovers the lengths from its SigWireSpec, so no per-signature length
  // prefix is spent (and the default sim scheme stays byte-identical to the
  // old fixed-Digest wire format).
  void partial_sig(const crypto::PartialSig& s) {
    process(s.signer);
    raw(s.sig.span());
  }
  void threshold_sig(const crypto::ThresholdSig& s) {
    digest(s.message);
    signer_set(s.signers);
    raw(s.tag.span());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept { return bytes_; }
  [[nodiscard]] std::vector<std::uint8_t> take() && noexcept { return std::move(bytes_); }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> bytes_;
};

/// Sequential byte source over a borrowed buffer. Carries the
/// authenticator scheme's wire geometry (crypto/sig_wire.h) so signature
/// blobs and aggregation tags can be cut out of the frame; the default
/// spec is the sim default scheme, keeping all legacy byte streams
/// decodable without further configuration.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data,
                  crypto::SigWireSpec sig_wire = {}) noexcept
      : data_(data), sig_wire_(sig_wire) {}

  [[nodiscard]] const crypto::SigWireSpec& sig_wire() const noexcept { return sig_wire_; }

  [[nodiscard]] bool u8(std::uint8_t& out) { return read_le(out); }
  [[nodiscard]] bool u16(std::uint16_t& out) { return read_le(out); }
  [[nodiscard]] bool u32(std::uint32_t& out) { return read_le(out); }
  [[nodiscard]] bool u64(std::uint64_t& out) { return read_le(out); }
  [[nodiscard]] bool i64(std::int64_t& out) {
    std::uint64_t raw = 0;
    if (!read_le(raw)) return false;
    out = static_cast<std::int64_t>(raw);
    return true;
  }

  [[nodiscard]] bool boolean(bool& out) {
    std::uint8_t raw = 0;
    if (!u8(raw) || raw > 1) return false;
    out = raw == 1;
    return true;
  }
  [[nodiscard]] bool view(View& out) { return i64(out); }
  [[nodiscard]] bool epoch(Epoch& out) { return i64(out); }
  [[nodiscard]] bool process(ProcessId& out) { return u32(out); }
  [[nodiscard]] bool time_point(TimePoint& out) {
    std::int64_t t = 0;
    if (!i64(t)) return false;
    out = TimePoint(t);
    return true;
  }
  [[nodiscard]] bool duration(Duration& out) {
    std::int64_t t = 0;
    if (!i64(t)) return false;
    out = Duration(t);
    return true;
  }

  [[nodiscard]] bool bytes(std::vector<std::uint8_t>& out);
  /// Length-prefixed bytes like bytes(), borrowed from the buffer instead
  /// of copied (valid as long as the buffer is).
  [[nodiscard]] bool bytes_view(std::span<const std::uint8_t>& out);
  [[nodiscard]] bool str(std::string& out);
  [[nodiscard]] bool digest(crypto::Digest& out);
  [[nodiscard]] bool signer_set(SignerSet& out);
  /// Reads exactly `count` bytes into `out` (resized).
  [[nodiscard]] bool raw(crypto::SigBytes& out, std::size_t count);
  [[nodiscard]] bool partial_sig(crypto::PartialSig& out);
  [[nodiscard]] bool threshold_sig(crypto::ThresholdSig& out);

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }

 private:
  template <typename T>
  [[nodiscard]] bool read_le(T& out) {
    if (remaining() < sizeof(T)) return false;
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    out = v;
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  crypto::SigWireSpec sig_wire_;
};

}  // namespace lumiere::ser
