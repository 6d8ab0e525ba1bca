// Wire-size drift: the modeled byte accounting (Message::wire_size(),
// what MetricsCollector charges) versus the real frame a TcpTransport
// ships (MessageCodec::encode(), [u32 type_id || body]).
//
// The two are intentionally NOT equal for certificate-bearing messages.
// The O(kappa) model charges an aggregate one kappa for its signer set
// and statement binding, plus the scheme tag (crypto/authenticator.h).
// The real frame ships no statement (the verifier recomputes it from the
// certificate's fields) but does ship the signer set as a varint universe
// and an n-bit bitmap, plus whatever binding fields the statement is
// computed from (a QC's block hash; inside a proposal or new-view, its
// view too). The fold is therefore signed: a bare VC/EC/wish cert frame
// sits below the model whenever the signer set is shorter than kappa,
// while a QC frame still sits above it by its block hash.
//
// This test pins the divergence EXACTLY, per registered message type,
// per registered authenticator scheme (blob and tag lengths are
// scheme-reported via SigWireSpec) and per cluster size (the bitmap
// grows with n): if either side changes — a field added to a serializer,
// a wire_size() formula touched, a new message type registered without
// an exemplar here — a test fails and the complexity accounting has to
// be re-justified rather than silently drifting.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>

#include "runtime/node_host.h"
#include "testutil/wire_exemplars.h"

namespace lumiere {
namespace {

class WireDriftTest : public ::testing::TestWithParam<std::tuple<std::string, std::uint32_t>> {};

TEST_P(WireDriftTest, EveryRegisteredTypeMatchesItsModeledSizePlusDeclaredFold) {
  const auto& [scheme, n] = GetParam();
  const auto auth_owner = crypto::make_authenticator(scheme, n, 11);
  const crypto::Authenticator& auth = *auth_owner;
  // The codec every real-byte path ships (runtime/node_host.h).
  const MessageCodec codec = runtime::wire_codec(auth);

  // What the real frame ships that the model does not, minus what the
  // model charges that the frame does not:
  //   * kSet: the signer set, varint n + ceil(n/8) bitmap bytes;
  //   * kStatement: the kappa the model charges for the statement binding
  //     and signer set together, which the frame replaces with kSet;
  //   * a QC additionally ships its block hash and, when it rides inside
  //     another message (proposal justify, new-view report), its view;
  //   * byte strings (payloads, attachments) and lists (cert announces,
  //     sync responses) ship a u32 length or count prefix.
  const auto kSet = static_cast<std::int64_t>(ser::signer_set_size(n));
  constexpr auto kStatement = static_cast<std::int64_t>(kKappaBytes);
  constexpr std::int64_t kQcBlockHash = crypto::Digest::kSize;
  constexpr std::int64_t kInnerQcView = 8;
  constexpr std::int64_t kPrefix = 4;
  const std::int64_t qc_fold = kQcBlockHash + kSet - kStatement;
  const std::int64_t block_fold = kPrefix + kInnerQcView + qc_fold;

  const std::map<std::uint32_t, std::int64_t> folds = {
      {consensus::kProposal, block_fold},
      {consensus::kVote, kPrefix},  // the attachment's prefix, like a new-view's
      {consensus::kQcAnnounce, qc_fold},
      // The attachment's prefix, like the payload's, and the view share's
      // presence byte.
      {consensus::kNewView, block_fold + 1},
      {pacemaker::kViewMsg, 0},
      {pacemaker::kEpochViewMsg, 0},
      {pacemaker::kWishMsg, 0},
      {pacemaker::kVcMsg, kSet - kStatement},
      {pacemaker::kEcMsg, kSet - kStatement},
      {pacemaker::kWishCertMsg, kSet - kStatement},
      // The push model already counts the payload, so only its prefix
      // folds; ack and fetch are exact; an announce adds its count.
      {dissem::kBatchPush, kPrefix},
      {dissem::kBatchAck, 0},
      {dissem::kBatchCertAnnounce, kPrefix + kSet - kStatement},
      {dissem::kBatchFetch, 0},
      // A sync response ships a count, then per block exactly what a
      // proposal ships (two blocks in the exemplar).
      {sync::kBlockFetch, 0},
      {sync::kBlockResp, kPrefix + 2 * block_fold},
  };

  const std::map<std::uint32_t, MessagePtr> exemplars = testutil::wire_exemplars(auth);
  for (const std::uint32_t type_id : codec.registered_types()) {
    const auto it = exemplars.find(type_id);
    ASSERT_NE(it, exemplars.end())
        << "registered type 0x" << std::hex << type_id
        << " has no exemplar — add one to tests/testutil/wire_exemplars.h";
    const auto fold = folds.find(type_id);
    ASSERT_NE(fold, folds.end()) << "registered type 0x" << std::hex << type_id
                                 << " has no declared model fold — add it above";
    const Message& msg = *it->second;
    const std::vector<std::uint8_t> frame = MessageCodec::encode(msg);
    EXPECT_EQ(static_cast<std::int64_t>(msg.wire_size()) + fold->second,
              static_cast<std::int64_t>(frame.size()) - 4)
        << msg.type_name() << ": modeled size + declared fold != real frame body";
    // The frame must round-trip, so the exemplar actually exercises the
    // registered decoder (a decode-only or encode-only drift still trips).
    EXPECT_NE(codec.decode(frame), nullptr) << msg.type_name();
  }
  EXPECT_EQ(exemplars.size(), codec.registered_types().size())
      << "exemplar list and registry disagree";
  EXPECT_EQ(folds.size(), codec.registered_types().size()) << "fold table and registry disagree";
}

TEST(WireDriftPinTest, CertificateFramesAtNSevenUnderHmac) {
  // The n = 7 HMAC numbers behind the fold table, spelled out: a 2-byte
  // signer set (varint 7, one bitmap byte) replaces the model's kappa, so
  // a bare cert frame sits 30 bytes below the model and a QC frame 2
  // above it.
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, 7, 11);
  const auto exemplars = testutil::wire_exemplars(*auth);
  const auto body = [&exemplars](std::uint32_t type_id) {
    return MessageCodec::encode(*exemplars.at(type_id)).size() - 4;
  };
  const auto model = [&exemplars](std::uint32_t type_id) {
    return exemplars.at(type_id)->wire_size();
  };
  EXPECT_EQ(model(pacemaker::kVcMsg), 72U);
  EXPECT_EQ(body(pacemaker::kVcMsg), 42U);
  EXPECT_EQ(model(consensus::kQcAnnounce), 72U);
  EXPECT_EQ(body(consensus::kQcAnnounce), 74U);
  EXPECT_EQ(body(dissem::kBatchCertAnnounce), 4U + 78U);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, WireDriftTest,
    ::testing::Combine(::testing::ValuesIn(crypto::scheme_names()),
                       ::testing::Values(4U, 7U, 31U, 64U, 65U)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_n" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace lumiere
