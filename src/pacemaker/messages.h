// Wire messages shared by the view-synchronization protocols.
#pragma once

#include <memory>

#include "pacemaker/certificates.h"
#include "ser/message.h"

namespace lumiere::pacemaker {

/// Message type tags (0x2000 range).
enum MsgType : std::uint32_t {
  kViewMsg = 0x2001,       ///< "view v" share, processor -> lead(v)
  kVcMsg = 0x2002,         ///< VC, lead(v) -> processes not yet in view v
  kEpochViewMsg = 0x2003,  ///< "epoch view v" share, broadcast all-to-all
  kEcMsg = 0x2004,         ///< aggregated EC broadcast (LP22 / Basic Lumiere)
  kWishMsg = 0x2101,       ///< Cogsworth/NK20 relay wish, processor -> relay leader
  kWishCertMsg = 0x2102,   ///< Cogsworth/NK20 view-change certificate broadcast
};

/// Carries one threshold share over a per-view statement. Used for view
/// messages, epoch-view messages and wishes (distinguished by type tag;
/// the share is domain-separated per statement so tags cannot be
/// cross-replayed).
template <std::uint32_t TypeId, typename Tag>
class ShareMsg final : public Message {
 public:
  ShareMsg(View view, crypto::PartialSig share) : view_(view), share_(share) {}

  [[nodiscard]] View view() const noexcept { return view_; }
  [[nodiscard]] const crypto::PartialSig& share() const noexcept { return share_; }

  std::uint32_t type_id() const override { return TypeId; }
  const char* type_name() const override { return Tag::kName; }
  MsgClass msg_class() const override { return MsgClass::kPacemaker; }
  std::size_t wire_size() const override { return 8 + share_.wire_size(); }
  void serialize(ser::Writer& w) const override {
    w.view(view_);
    w.partial_sig(share_);
  }
  void collect_auth(AuthClaimSink& sink) const override {
    sink.share(Tag::statement(view_), share_);
  }
  static MessagePtr deserialize(ser::Reader& r) {
    View view = -1;
    crypto::PartialSig share;
    if (!r.view(view) || !r.partial_sig(share)) return nullptr;
    return std::make_shared<ShareMsg>(view, share);
  }

 private:
  View view_;
  crypto::PartialSig share_;
};

/// Carries an aggregated certificate. VC/EC/wish-cert (by type tag).
template <std::uint32_t TypeId, typename Tag>
class CertMsg final : public Message {
 public:
  explicit CertMsg(SyncCert cert) : cert_(std::move(cert)) {}

  [[nodiscard]] const SyncCert& cert() const noexcept { return cert_; }
  [[nodiscard]] View view() const noexcept { return cert_.view(); }

  std::uint32_t type_id() const override { return TypeId; }
  const char* type_name() const override { return Tag::kName; }
  MsgClass msg_class() const override { return MsgClass::kPacemaker; }
  std::size_t wire_size() const override { return 8 + cert_.sig().wire_size(); }
  void serialize(ser::Writer& w) const override { cert_.serialize(w); }
  void collect_auth(AuthClaimSink& sink) const override {
    sink.aggregate(Tag::statement(cert_.view()), cert_.sig());
  }
  static MessagePtr deserialize(ser::Reader& r) {
    auto cert = SyncCert::deserialize(r);
    if (!cert) return nullptr;
    return std::make_shared<CertMsg>(std::move(*cert));
  }

 private:
  SyncCert cert_;
};

namespace detail {
struct ViewTag {
  static constexpr const char* kName = "view";
  static crypto::Digest statement(View v) { return view_msg_statement(v); }
};
struct VcTag {
  static constexpr const char* kName = "vc";
  static crypto::Digest statement(View v) { return view_msg_statement(v); }
};
struct EpochViewTag {
  static constexpr const char* kName = "epoch-view";
  static crypto::Digest statement(View v) { return epoch_msg_statement(v); }
};
struct EcTag {
  static constexpr const char* kName = "ec";
  static crypto::Digest statement(View v) { return epoch_msg_statement(v); }
};
struct WishTag {
  static constexpr const char* kName = "wish";
  static crypto::Digest statement(View v) { return wish_statement(v); }
};
struct WishCertTag {
  static constexpr const char* kName = "wish-cert";
  static crypto::Digest statement(View v) { return wish_statement(v); }
};
}  // namespace detail

using ViewMsg = ShareMsg<kViewMsg, detail::ViewTag>;
using EpochViewMsg = ShareMsg<kEpochViewMsg, detail::EpochViewTag>;
using WishMsg = ShareMsg<kWishMsg, detail::WishTag>;
using VcMsg = CertMsg<kVcMsg, detail::VcTag>;
using EcMsg = CertMsg<kEcMsg, detail::EcTag>;
using WishCertMsg = CertMsg<kWishCertMsg, detail::WishCertTag>;

/// Registers all pacemaker message types with a codec.
inline void register_pacemaker_messages(MessageCodec& codec) {
  codec.register_type(kViewMsg, &ViewMsg::deserialize);
  codec.register_type(kVcMsg, &VcMsg::deserialize);
  codec.register_type(kEpochViewMsg, &EpochViewMsg::deserialize);
  codec.register_type(kEcMsg, &EcMsg::deserialize);
  codec.register_type(kWishMsg, &WishMsg::deserialize);
  codec.register_type(kWishCertMsg, &WishCertMsg::deserialize);
}

}  // namespace lumiere::pacemaker
