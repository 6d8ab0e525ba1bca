// Adversarial bytes on the wire: a TCP listener on a real network will
// receive connections from things that are not honest lumiere nodes.
// Garbage frames, oversized length prefixes, slow trickles and abrupt
// disconnects must never crash the endpoint or stop legitimate traffic.
#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "consensus/messages.h"
#include "crypto/authenticator.h"
#include "pacemaker/certificates.h"
#include "pacemaker/messages.h"
#include "transport/tcp_transport.h"

namespace lumiere::transport {
namespace {

MessageCodec full_codec() {
  MessageCodec codec;
  consensus::register_consensus_messages(codec);
  pacemaker::register_pacemaker_messages(codec);
  return codec;
}

/// Connects a raw client socket to 127.0.0.1:port; returns fd or -1.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void write_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

TEST(TcpGarbageTest, RandomBytesNeverCrashAndLegitTrafficFlows) {
  constexpr std::uint16_t kBase = 26100;
  std::vector<std::unique_ptr<TcpEndpoint>> eps;
  int delivered = 0;
  for (ProcessId id = 0; id < 2; ++id) {
    eps.push_back(std::make_unique<TcpEndpoint>(
        id, 2, kBase, full_codec(),
        [&delivered](ProcessId, const MessagePtr&) { ++delivered; }));
  }

  // Several hostile clients spray random bytes at endpoint 0's listener
  // (pumping between connects, as a live node constantly would).
  Rng rng(0xBAD);
  std::vector<int> hostiles;
  for (int k = 0; k < 4; ++k) {
    const int fd = raw_connect(kBase);
    ASSERT_GE(fd, 0);
    hostiles.push_back(fd);
    std::vector<std::uint8_t> junk(64 + rng.next_below(400));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    write_all(fd, junk);
    for (auto& ep : eps) ep->poll_once(1);
  }
  // One hostile client announces an absurd frame length and goes quiet;
  // another disconnects mid-"frame".
  {
    const int fd = raw_connect(kBase);
    ASSERT_GE(fd, 0);
    write_all(fd, {0xFF, 0xFF, 0xFF, 0x7F, 0x00, 0x00, 0x00, 0x00});
    hostiles.push_back(fd);
    const int fd2 = raw_connect(kBase);
    ASSERT_GE(fd2, 0);
    write_all(fd2, {0x10, 0x00});
    ::close(fd2);
  }

  for (int round = 0; round < 30; ++round) {
    for (auto& ep : eps) ep->poll_once(2);
  }

  // Legitimate traffic still flows both ways.
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, 2, 1);
  const auto msg = std::make_shared<pacemaker::ViewMsg>(
      3, crypto::threshold_share(auth->signer_for(1), pacemaker::view_msg_statement(3)));
  eps[1]->send(0, msg);
  eps[0]->send(1, msg);
  for (int round = 0; round < 50 && delivered < 2; ++round) {
    for (auto& ep : eps) ep->poll_once(2);
  }
  EXPECT_GE(delivered, 2) << "garbage connections starved legitimate traffic";

  for (const int fd : hostiles) ::close(fd);
}

TEST(TcpGarbageTest, TrickledValidFrameStillDecodes) {
  // A legitimate frame delivered one byte at a time must reassemble.
  constexpr std::uint16_t kBase = 26110;
  int got_view = -1;
  TcpEndpoint server(0, 2, kBase, full_codec(),
                     [&got_view](ProcessId, const MessagePtr& msg) {
                       got_view = static_cast<int>(
                           static_cast<const pacemaker::ViewMsg&>(*msg).view());
                     });
  // Build the exact frame a peer would send: [len][sender][payload].
  const auto auth = crypto::make_authenticator(crypto::kDefaultScheme, 2, 1);
  const pacemaker::ViewMsg msg(
      5, crypto::threshold_share(auth->signer_for(1), pacemaker::view_msg_statement(5)));
  const auto payload = MessageCodec::encode(msg);
  std::vector<std::uint8_t> frame;
  auto put_u32 = [&frame](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) frame.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put_u32(static_cast<std::uint32_t>(payload.size()));
  put_u32(1);  // sender id
  frame.insert(frame.end(), payload.begin(), payload.end());

  const int fd = raw_connect(kBase);
  ASSERT_GE(fd, 0);
  for (const std::uint8_t byte : frame) {
    write_all(fd, {byte});
    server.poll_once(0);
  }
  for (int round = 0; round < 20 && got_view < 0; ++round) server.poll_once(2);
  EXPECT_EQ(got_view, 5);
  ::close(fd);
}

}  // namespace
}  // namespace lumiere::transport
