// The abstract protocol message.
//
// The deterministic simulator passes messages by shared pointer (no
// serialization on the hot path); the metrics layer charges each send by
// `wire_size()`, and the TCP transport uses `serialize()` plus a
// `MessageCodec` for real framing. Concrete message types live with the
// protocol that owns them (consensus/ and pacemaker/ / core/).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "ser/serializer.h"

namespace lumiere {

/// Collects the authenticator claims a message carries, so a pipeline
/// worker can pre-verify them off the consensus thread (runtime/pipeline.h).
/// `message` is the statement digest in the same convention the verify
/// API uses (shares: the pre-domain-separation statement). Aggregates do
/// not carry their statement, so the message derives it from its own
/// fields exactly as its verify path does.
class AuthClaimSink {
 public:
  virtual ~AuthClaimSink() = default;
  virtual void share(const crypto::Digest& message, const crypto::PartialSig& share) = 0;
  virtual void aggregate(const crypto::Digest& message, const crypto::ThresholdSig& sig) = 0;
};

class Message {
 public:
  virtual ~Message() = default;

  /// Globally unique wire tag. Ranges: 0x1000 consensus, 0x2000 generic
  /// pacemaker, 0x2100 Cogsworth/NK20, 0x2200 LP22, 0x2300 Fever,
  /// 0x2400 Lumiere, 0x3000 adversary/test, 0x4000 dissemination,
  /// 0x5000 block sync.
  [[nodiscard]] virtual std::uint32_t type_id() const = 0;
  [[nodiscard]] virtual const char* type_name() const = 0;
  [[nodiscard]] virtual MsgClass msg_class() const = 0;

  /// Modeled wire size in bytes; all protocol messages are O(kappa)
  /// (Section 2). Used for byte-level communication accounting.
  [[nodiscard]] virtual std::size_t wire_size() const = 0;

  /// Writes the body (not the type tag) to `w`.
  virtual void serialize(ser::Writer& w) const = 0;

  /// Reports every signature/aggregate this message carries to `sink`
  /// (statement + claim), for off-thread batch verification. Default:
  /// the message carries no authenticator material.
  virtual void collect_auth(AuthClaimSink& sink) const { (void)sink; }
};

using MessagePtr = std::shared_ptr<const Message>;

/// Decoder registry for transports that move real bytes. Codecs are plain
/// objects owned by whoever needs them (no global registry; I.3).
class MessageCodec {
 public:
  using DecodeFn = std::function<MessagePtr(ser::Reader&)>;

  void register_type(std::uint32_t type_id, DecodeFn fn) {
    decoders_[type_id] = std::move(fn);
  }

  /// Installs the authenticator scheme's wire geometry; every Reader this
  /// codec hands to a decoder carries it. Default: the sim default scheme.
  void set_sig_wire(crypto::SigWireSpec spec) noexcept { sig_wire_ = spec; }
  [[nodiscard]] const crypto::SigWireSpec& sig_wire() const noexcept { return sig_wire_; }

  /// Frames `msg` as [u32 type_id || body].
  [[nodiscard]] static std::vector<std::uint8_t> encode(const Message& msg) {
    std::vector<std::uint8_t> out;
    encode_into(msg, out);
    return out;
  }

  /// encode() into a caller-owned buffer, reusing its capacity — the
  /// allocation-free form for the TCP endpoint's scratch buffers.
  static void encode_into(const Message& msg, std::vector<std::uint8_t>& out) {
    ser::Writer w(std::move(out));
    w.u32(msg.type_id());
    msg.serialize(w);
    out = std::move(w).take();
  }

  /// Decodes one frame; nullptr on unknown type, malformed body, or
  /// bytes left after the body: a message has exactly one frame.
  [[nodiscard]] MessagePtr decode(std::span<const std::uint8_t> frame) const {
    ser::Reader r(frame, sig_wire_);
    std::uint32_t type_id = 0;
    if (!r.u32(type_id)) return nullptr;
    const auto it = decoders_.find(type_id);
    if (it == decoders_.end()) return nullptr;
    MessagePtr msg = it->second(r);
    return r.exhausted() ? msg : nullptr;
  }

  /// All registered type ids, sorted — lets tests sweep every decodable
  /// type (e.g. the wire-size drift check) without a parallel list.
  [[nodiscard]] std::vector<std::uint32_t> registered_types() const {
    std::vector<std::uint32_t> ids;
    ids.reserve(decoders_.size());
    for (const auto& [id, fn] : decoders_) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    return ids;
  }

 private:
  std::unordered_map<std::uint32_t, DecodeFn> decoders_;
  crypto::SigWireSpec sig_wire_;
};

}  // namespace lumiere
