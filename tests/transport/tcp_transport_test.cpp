#include "transport/tcp_transport.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "consensus/messages.h"
#include "crypto/authenticator.h"
#include "pacemaker/messages.h"

namespace lumiere::transport {
namespace {

MessageCodec full_codec() {
  MessageCodec codec;
  consensus::register_consensus_messages(codec);
  pacemaker::register_pacemaker_messages(codec);
  return codec;
}

std::uint16_t pick_base_port(std::uint16_t offset) {
  // Spread across test cases to avoid rebind races in the same process.
  return static_cast<std::uint16_t>(23100 + offset);
}

void pump_all(std::vector<std::unique_ptr<TcpEndpoint>>& endpoints, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    for (auto& ep : endpoints) ep->poll_once(5);
  }
}

TEST(TcpTransportTest, PointToPointDelivery) {
  const auto base = pick_base_port(0);
  std::vector<std::unique_ptr<TcpEndpoint>> eps;
  std::map<ProcessId, std::vector<View>> received;
  for (ProcessId id = 0; id < 2; ++id) {
    eps.push_back(std::make_unique<TcpEndpoint>(
        id, 2, base, full_codec(), [&received, id](ProcessId, const MessagePtr& msg) {
          received[id].push_back(static_cast<const pacemaker::ViewMsg&>(*msg).view());
        }));
  }
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, 2, 1);
  const pacemaker::ViewMsg msg(
      7, crypto::threshold_share(auth->signer_for(0), pacemaker::view_msg_statement(7)));
  eps[0]->send(1, msg);
  pump_all(eps, 20);
  ASSERT_EQ(received[1].size(), 1U);
  EXPECT_EQ(received[1][0], 7);
}

TEST(TcpTransportTest, BroadcastIncludesSelf) {
  const auto base = pick_base_port(8);
  std::vector<std::unique_ptr<TcpEndpoint>> eps;
  std::map<ProcessId, int> counts;
  for (ProcessId id = 0; id < 3; ++id) {
    eps.push_back(std::make_unique<TcpEndpoint>(
        id, 3, base, full_codec(),
        [&counts, id](ProcessId, const MessagePtr&) { ++counts[id]; }));
  }
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, 3, 1);
  const pacemaker::EpochViewMsg msg(
      0, crypto::threshold_share(auth->signer_for(2), pacemaker::epoch_msg_statement(0)));
  for (ProcessId to = 0; to < 3; ++to) eps[2]->send(to, msg);
  pump_all(eps, 20);
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 1) << "self-delivery per the paper's convention";
}

TEST(TcpTransportTest, LargeMessageSurvivesFraming) {
  const auto base = pick_base_port(16);
  std::vector<std::unique_ptr<TcpEndpoint>> eps;
  std::vector<std::size_t> payload_sizes;
  for (ProcessId id = 0; id < 2; ++id) {
    eps.push_back(std::make_unique<TcpEndpoint>(
        id, 2, base, full_codec(), [&payload_sizes, id](ProcessId, const MessagePtr& msg) {
          if (id == 1) {
            payload_sizes.push_back(
                static_cast<const consensus::ProposalMsg&>(*msg).block().payload().size());
          }
        }));
  }
  const auto genesis = consensus::QuorumCert::genesis(consensus::Block::genesis().hash());
  const std::vector<std::uint8_t> big(50'000, 0x5A);
  const consensus::ProposalMsg msg(
      consensus::Block(consensus::Block::genesis().hash(), 1, big, genesis));
  eps[0]->send(1, msg);
  pump_all(eps, 100);
  ASSERT_EQ(payload_sizes.size(), 1U);
  EXPECT_EQ(payload_sizes[0], 50'000U);
}

TEST(TcpTransportTest, ManyFramesInOrder) {
  const auto base = pick_base_port(24);
  std::vector<std::unique_ptr<TcpEndpoint>> eps;
  std::vector<View> received;
  for (ProcessId id = 0; id < 2; ++id) {
    eps.push_back(std::make_unique<TcpEndpoint>(
        id, 2, base, full_codec(), [&received, id](ProcessId, const MessagePtr& msg) {
          if (id == 1) received.push_back(static_cast<const pacemaker::ViewMsg&>(*msg).view());
        }));
  }
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, 2, 1);
  for (View v = 0; v < 200; ++v) {
    eps[0]->send(1, pacemaker::ViewMsg(
                        v, crypto::threshold_share(auth->signer_for(0),
                                                   pacemaker::view_msg_statement(v))));
  }
  pump_all(eps, 100);
  ASSERT_EQ(received.size(), 200U);
  for (View v = 0; v < 200; ++v) EXPECT_EQ(received[static_cast<std::size_t>(v)], v);
}

TEST(TcpTransportTest, BytesSentCountsHeaderPlusEncodedBody) {
  // bytes_sent() is exactly the sum over frames to peers of the 8-byte
  // [len][sender] header and the encoded payload; the self-copy of a
  // broadcast's send loop crosses no socket and adds nothing.
  const auto base = pick_base_port(32);
  std::vector<std::unique_ptr<TcpEndpoint>> eps;
  int delivered = 0;
  for (ProcessId id = 0; id < 3; ++id) {
    eps.push_back(std::make_unique<TcpEndpoint>(
        id, 3, base, full_codec(), [&delivered](ProcessId, const MessagePtr&) { ++delivered; }));
  }
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, 3, 1);
  const crypto::Digest hash = crypto::Sha256::hash("bytes-sent block");
  const crypto::Digest statement = consensus::QuorumCert::statement(4, hash);
  crypto::QuorumAggregator agg(crypto::AuthView(auth.get()), statement, 3);
  for (ProcessId id = 0; id < 3; ++id) {
    agg.add(crypto::threshold_share(auth->signer_for(id), statement));
  }
  const consensus::QcMsg qc(consensus::QuorumCert(4, hash, agg.aggregate()));
  const pacemaker::ViewMsg view(
      5, crypto::threshold_share(auth->signer_for(0), pacemaker::view_msg_statement(5)));

  EXPECT_EQ(eps[0]->bytes_sent(), 0U);
  eps[0]->send(1, view);
  eps[0]->send(2, qc);
  for (ProcessId to = 0; to < 3; ++to) eps[0]->send(to, qc);  // two peers plus self
  pump_all(eps, 20);
  EXPECT_EQ(delivered, 5);
  const std::size_t view_frame = 8 + MessageCodec::encode(view).size();
  const std::size_t qc_frame = 8 + MessageCodec::encode(qc).size();
  EXPECT_EQ(eps[0]->bytes_sent(), view_frame + 3 * qc_frame);
  EXPECT_EQ(eps[0]->frames_sent(), 5U);
  EXPECT_EQ(eps[1]->bytes_sent(), 0U);
}

}  // namespace
}  // namespace lumiere::transport
