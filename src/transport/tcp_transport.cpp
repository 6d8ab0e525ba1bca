#include "transport/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/assert.h"

namespace lumiere::transport {

namespace {

/// Largest frame payload a peer may announce. Protocol messages are
/// O(kappa) plus block payloads; 1 MiB leaves generous headroom while
/// bounding what one hostile connection can make us buffer.
constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/// [u32 payload_len][u32 sender_id] ahead of every payload.
constexpr std::size_t kFrameHeaderBytes = 8;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t read_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

TcpEndpoint::TcpEndpoint(ProcessId self, std::uint32_t n, std::uint16_t base_port,
                         MessageCodec codec, ReceiveFn on_receive)
    : self_(self),
      n_(n),
      base_port_(base_port),
      codec_(std::move(codec)),
      on_receive_(std::move(on_receive)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(base_port_ + self_));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("bind() failed (port in use?)");
  }
  // Backlog beyond n: reconnecting peers and (on a real network) strangers
  // may queue faster than one poll cycle accepts them.
  if (::listen(listen_fd_, static_cast<int>(n_) + 16) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("listen() failed");
  }
  set_nonblocking(listen_fd_);
}

TcpEndpoint::~TcpEndpoint() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (auto& [peer, conn] : outgoing_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  for (auto& conn : incoming_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

void TcpEndpoint::set_reconnect_backoff(BackoffPolicy policy, std::uint64_t jitter_seed) {
  backoff_policy_ = policy;
  backoff_seed_ = jitter_seed;
  reconnect_.clear();  // existing per-peer schedules restart under the new policy
}

std::uint64_t TcpEndpoint::connect_failures(ProcessId to) const {
  const auto it = reconnect_.find(to);
  return it == reconnect_.end() ? 0 : it->second.backoff.failures();
}

TcpEndpoint::Conn* TcpEndpoint::connection_to(ProcessId to) {
  auto it = outgoing_.find(to);
  if (it != outgoing_.end() && it->second.fd >= 0) return &it->second;

  // Reconnect gate: a peer that refused recently is not retried until its
  // backoff delay elapses — a dead process's port would fail every send,
  // and a restarting one needs breathing room to rebind.
  auto state_it = reconnect_.find(to);
  if (state_it == reconnect_.end()) {
    state_it = reconnect_
                   .emplace(to, ReconnectState{ReconnectBackoff(backoff_policy_,
                                                                backoff_seed_ ^ to),
                                               std::chrono::steady_clock::time_point::min()})
                   .first;
  }
  ReconnectState& state = state_it->second;
  if (std::chrono::steady_clock::now() < state.next_attempt) return nullptr;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(base_port_ + to));
  // Blocking connect keeps the demo simple; peers are local, so a dead
  // port answers ECONNREFUSED immediately rather than hanging.
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    const Duration delay = state.backoff.on_failure();
    state.next_attempt =
        std::chrono::steady_clock::now() + std::chrono::microseconds(delay.ticks());
    return nullptr;
  }
  state.backoff.on_success();
  state.next_attempt = std::chrono::steady_clock::time_point::min();
  set_nonblocking(fd);
  Conn conn;
  conn.fd = fd;
  conn.peer = to;
  return &(outgoing_[to] = std::move(conn));
}

void TcpEndpoint::enqueue_frame(Conn& conn, std::span<const std::uint8_t> payload) {
  append_u32(conn.outbox, static_cast<std::uint32_t>(payload.size()));
  append_u32(conn.outbox, self_);
  conn.outbox.insert(conn.outbox.end(), payload.begin(), payload.end());
  ++frames_sent_;
  bytes_sent_ += kFrameHeaderBytes + payload.size();
}

void TcpEndpoint::send(ProcessId to, const MessagePtr& msg) {
  if (to == self_) {
    // Self-delivery mirrors the simulator's convention: immediate. The
    // copy never leaves the process, so it skips the codec.
    ++frames_sent_;
    ++frames_received_;
    on_receive_(self_, msg);
    return;
  }
  Conn* conn = connection_to(to);
  if (conn == nullptr) return;  // peer unreachable — drop before paying the encode
  if (msg != encoded_msg_) {
    MessageCodec::encode_into(*msg, encoded_);
    ++frames_encoded_;
    encoded_msg_ = msg;
  }
  enqueue_frame(*conn, encoded_);
  flush(*conn);
}

void TcpEndpoint::flush(Conn& conn) {
  while (!conn.outbox.empty()) {
    const ssize_t sent = ::send(conn.fd, conn.outbox.data(), conn.outbox.size(), MSG_NOSIGNAL);
    if (sent <= 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      close_conn(conn);
      return;
    }
    conn.outbox.erase(conn.outbox.begin(), conn.outbox.begin() + sent);
  }
}

void TcpEndpoint::close_conn(Conn& conn) {
  if (conn.fd >= 0) ::close(conn.fd);
  conn.fd = -1;
  conn.inbox.clear();
  conn.outbox.clear();
}

void TcpEndpoint::accept_pending() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Conn conn;
    conn.fd = fd;
    incoming_.push_back(std::move(conn));
  }
}

void TcpEndpoint::read_and_dispatch(Conn& conn) {
  std::uint8_t buf[4096];
  while (true) {
    const ssize_t got = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (got == 0) {
      close_conn(conn);
      return;
    }
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(conn);
      return;
    }
    conn.inbox.insert(conn.inbox.end(), buf, buf + got);
  }
  // Dispatch complete frames.
  std::size_t offset = 0;
  while (conn.inbox.size() - offset >= 8) {
    const std::uint32_t len = read_u32(conn.inbox.data() + offset);
    // No protocol message approaches this size; a larger announced frame
    // is an attack (or corruption) and would otherwise make us buffer
    // unboundedly toward it. Drop the connection instead.
    if (len > kMaxFrameBytes) {
      close_conn(conn);
      return;
    }
    if (conn.inbox.size() - offset - 8 < len) break;
    const ProcessId from = read_u32(conn.inbox.data() + offset + 4);
    const std::span<const std::uint8_t> payload(conn.inbox.data() + offset + 8, len);
    offset += 8 + len;
    if (from >= n_) continue;
    conn.peer = from;
    if (raw_sink_ && raw_sink_(from, payload)) {
      ++frames_received_;
      continue;
    }
    const MessagePtr msg = codec_.decode(payload);
    if (msg != nullptr) {
      ++frames_received_;
      on_receive_(from, msg);
    }
  }
  if (offset > 0) {
    conn.inbox.erase(conn.inbox.begin(),
                     conn.inbox.begin() + static_cast<std::ptrdiff_t>(offset));
  }
}

std::size_t TcpEndpoint::poll_once(int timeout_ms) {
  accept_pending();

  std::vector<pollfd> fds;
  std::vector<Conn*> conns;
  fds.push_back(pollfd{listen_fd_, POLLIN, 0});
  conns.push_back(nullptr);
  for (auto& [peer, conn] : outgoing_) {
    if (conn.fd < 0) continue;
    short events = POLLIN;
    if (!conn.outbox.empty()) events |= POLLOUT;
    fds.push_back(pollfd{conn.fd, events, 0});
    conns.push_back(&conn);
  }
  for (auto& conn : incoming_) {
    if (conn.fd < 0) continue;
    fds.push_back(pollfd{conn.fd, POLLIN, 0});
    conns.push_back(&conn);
  }

  const std::uint64_t before = frames_received_;
  if (::poll(fds.data(), fds.size(), timeout_ms) <= 0) return 0;

  if ((fds[0].revents & POLLIN) != 0) accept_pending();
  for (std::size_t i = 1; i < fds.size(); ++i) {
    if (conns[i] == nullptr || conns[i]->fd < 0) continue;
    if ((fds[i].revents & POLLOUT) != 0) flush(*conns[i]);
    if ((fds[i].revents & (POLLIN | POLLHUP)) != 0) read_and_dispatch(*conns[i]);
  }
  return frames_received_ - before;
}

}  // namespace lumiere::transport
