// Live status endpoints: a raw-socket client speaks the line protocol to
// a running TCP cluster, and the builder rejects the configurations the
// endpoints cannot serve.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/status_server.h"
#include "runtime/cluster.h"

namespace lumiere::obs {
namespace {

using runtime::Cluster;
using runtime::ScenarioBuilder;

// Port block disjoint from the transport suite (25560-26000) and the
// span-attribution TCP test (27210).
constexpr std::uint16_t kTcpBase = 27300;
constexpr std::uint16_t kStatusBase = 27340;

class StatusClient {
 public:
  explicit StatusClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error("connect() failed");
    }
  }
  ~StatusClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  StatusClient(const StatusClient&) = delete;
  StatusClient& operator=(const StatusClient&) = delete;

  void send_line(const std::string& line) { send_raw(line + "\n"); }

  /// Raw bytes, no newline appended — for mid-line disconnect tests.
  void send_raw(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), 0), static_cast<ssize_t>(bytes.size()));
  }

  /// Reads until `terminator` appears at the start of a line (or the peer
  /// closes). Returns everything read.
  std::string read_until(const std::string& terminator) {
    std::string out;
    char buf[512];
    while (true) {
      const ssize_t got = ::recv(fd_, buf, sizeof(buf), 0);
      if (got <= 0) break;
      out.append(buf, static_cast<std::size_t>(got));
      std::istringstream lines(out);
      for (std::string line; std::getline(lines, line);) {
        if (line == terminator) return out;
      }
    }
    return out;
  }

  /// Reads one reply line, without its newline.
  std::string read_line() {
    std::string out;
    char c = 0;
    while (::recv(fd_, &c, 1, 0) == 1 && c != '\n') out.push_back(c);
    return out;
  }

  [[nodiscard]] bool peer_closed() {
    char byte = 0;
    return ::recv(fd_, &byte, 1, 0) == 0;
  }

 private:
  int fd_ = -1;
};

std::map<std::string, std::string> parse_status(const std::string& reply) {
  std::map<std::string, std::string> fields;
  std::istringstream lines(reply);
  for (std::string line; std::getline(lines, line);) {
    if (line == "END" || line.empty()) continue;
    const auto space = line.find(' ');
    if (space == std::string::npos) {
      ADD_FAILURE() << "malformed status line: " << line;
      continue;
    }
    fields[line.substr(0, space)] = line.substr(space + 1);
  }
  return fields;
}

TEST(StatusEndpointTest, ServesLiveStatusOverTcp) {
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(4, Duration::millis(10), /*x=*/4))
      .pacemaker("lumiere")
      .core("chained-hotstuff")
      .seed(2726)
      .transport_tcp(kTcpBase);
  ObsSpec spec;
  spec.status_base_port = kStatusBase;
  spec.admin_token = "sekrit";
  builder.observability(spec);
  Cluster cluster(builder);

  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_EQ(cluster.status_port(id), kStatusBase + id);
  }

  // Endpoints answer before the protocol has run a single step.
  {
    StatusClient client(kStatusBase);
    client.send_line("PING");
    EXPECT_EQ(client.read_until("PONG"), "PONG\n");
  }

  cluster.run_for(Duration::millis(800));  // wall-clock

  for (ProcessId id = 0; id < 4; ++id) {
    StatusClient client(static_cast<std::uint16_t>(kStatusBase + id));
    client.send_line("STATUS");
    const std::string reply = client.read_until("END");
    auto fields = parse_status(reply);
    ASSERT_TRUE(fields.count("node")) << "no node line in reply:\n" << reply;
    EXPECT_EQ(fields.at("node"), std::to_string(id));
    EXPECT_GT(std::stoll(fields.at("view")), 0) << "node " << id << " made no progress";
    EXPECT_GT(std::stoull(fields.at("msgs_sent")), 0U);
    EXPECT_GT(std::stoull(fields.at("auth_ops")), 0U);
    // The endpoint serves between run_for slices too — same thread-safe
    // snapshot path.
    client.send_line("STATUS");
    EXPECT_NE(client.read_until("END").find("\nEND\n"), std::string::npos);
  }

  // Unknown commands get a diagnostic, QUIT hangs up.
  {
    StatusClient client(kStatusBase + 1);
    client.send_line("FROBNICATE");
    EXPECT_EQ(client.read_until("ERR unknown command"), "ERR unknown command\n");
    client.send_line("QUIT");
    EXPECT_TRUE(client.peer_closed());
  }

  // The record kept up with the nodes: the snapshot agrees with the
  // harness-side view of the same counters.
  for (ProcessId id = 0; id < 4; ++id) {
    const NodeStatus status = cluster.node_status(id);
    EXPECT_GT(status.view, 0);
    EXPECT_EQ(status.msgs_sent, cluster.sync_tracer()->msgs_sent(id));
  }

  // Admin verbs on a Cluster node: they queue at the node's gate and
  // apply on its driver thread, so the replies arrive during run_for.
  std::string crash_reply;
  std::string behavior_reply;
  std::atomic<bool> admin_done{false};
  std::thread admin([&] {
    StatusClient client(kStatusBase + 3);
    client.send_line("AUTH sekrit");
    EXPECT_EQ(client.read_line(), "OK");
    client.send_line("CRASH");
    crash_reply = client.read_line();
    client.send_line("BEHAVIOR equivocator");
    behavior_reply = client.read_line();
    admin_done.store(true);
  });
  for (int slice = 0; slice < 100 && !admin_done.load(); ++slice) {
    cluster.run_for(Duration::millis(100));
  }
  admin.join();
  EXPECT_EQ(crash_reply, "ERR crash disabled") << "an in-process cluster must never _exit";
  EXPECT_EQ(behavior_reply, "OK");
  cluster.run_for(Duration::millis(100));
  EXPECT_EQ(cluster.honest_ids(), (std::vector<ProcessId>{0, 1, 2}));
  EXPECT_TRUE(cluster.byzantine_mask()[3]);
  EXPECT_TRUE(cluster.node_status(3).ever_byzantine);
  EXPECT_FALSE(cluster.node_status(2).ever_byzantine);
}

TEST(StatusEndpointTest, StandaloneServerLifecycle) {
  // The server is independent of the protocol stack: a bare snapshot
  // closure is enough, and the port frees on destruction.
  constexpr std::uint16_t kPort = kStatusBase + 20;
  {
    StatusServer server(kPort, [] {
      NodeStatus status;
      status.node = 7;
      status.view = 42;
      return status;
    });
    EXPECT_EQ(server.port(), kPort);
    StatusClient client(kPort);
    client.send_line("STATUS");
    const std::string reply = client.read_until("END");
    EXPECT_NE(reply.find("node 7\n"), std::string::npos);
    EXPECT_NE(reply.find("view 42\n"), std::string::npos);
  }
  // Rebind after shutdown must succeed (no lingering listener).
  StatusServer again(kPort, [] { return NodeStatus{}; });
  EXPECT_EQ(again.port(), kPort);
}

TEST(StatusEndpointTest, ServesAdminFieldsAndAuthFlow) {
  // The soak orchestrator's view of a replica: the PR 9 STATUS fields and
  // the AUTH gate in front of the admin verbs, against a fake submit hook
  // (no protocol stack needed).
  constexpr std::uint16_t kPort = kStatusBase + 24;
  StatusServer::AdminHooks hooks;
  hooks.token = "sekrit";
  hooks.submit = [](const AdminCommand& command) -> std::optional<std::string> {
    return std::string("applied ") + to_string(command.kind);
  };
  StatusServer server(
      kPort,
      [] {
        NodeStatus status;
        status.node = 3;
        status.last_commit_height = 41;
        status.ever_byzantine = true;
        return status;
      },
      std::move(hooks));

  StatusClient client(kPort);
  client.send_line("STATUS");
  const auto fields = parse_status(client.read_until("END"));
  EXPECT_EQ(fields.at("last_commit_height"), "41");
  EXPECT_EQ(fields.at("ever_byzantine"), "1");

  // Admin verbs are locked until this session authenticates.
  client.send_line("ISOLATE");
  EXPECT_EQ(client.read_until("ERR auth required"), "ERR auth required\n");
  client.send_line("AUTH wrong");
  EXPECT_EQ(client.read_until("ERR bad token"), "ERR bad token\n");
  client.send_line("AUTH sekrit");
  EXPECT_EQ(client.read_until("OK"), "OK\n");
  client.send_line("DROP 1 0.5");
  EXPECT_EQ(client.read_until("applied DROP"), "applied DROP\n");
  client.send_line("DROP 1 nonsense");
  EXPECT_EQ(client.read_until("ERR DROP needs <peer> <probability>"),
            "ERR DROP needs <peer> <probability>\n");

  // A second session does not inherit the first one's authentication.
  StatusClient second(kPort);
  second.send_line("HEAL");
  EXPECT_EQ(second.read_until("ERR auth required"), "ERR auth required\n");
}

TEST(StatusEndpointTest, AdminDisabledWithoutHooks) {
  constexpr std::uint16_t kPort = kStatusBase + 26;
  StatusServer server(kPort, [] { return NodeStatus{}; });
  StatusClient client(kPort);
  client.send_line("AUTH anything");
  EXPECT_EQ(client.read_until("ERR admin disabled"), "ERR admin disabled\n");
  client.send_line("LEDGER");
  EXPECT_EQ(client.read_until("ERR admin disabled"), "ERR admin disabled\n");
}

TEST(StatusEndpointTest, SurvivesMidLineDisconnectAndHeldSockets) {
  constexpr std::uint16_t kPort = kStatusBase + 28;
  std::unique_ptr<StatusClient> holder;  // outlives the server below
  {
    StatusServer server(kPort, [] { return NodeStatus{}; });
    {
      // Client dies mid-line: no newline ever arrives. The session must
      // notice the hangup rather than wait for a terminator.
      StatusClient partial(kPort);
      partial.send_raw("STATU");  // no newline, then close
    }
    // The server still serves fresh sessions afterwards.
    StatusClient healthy(kPort);
    healthy.send_line("PING");
    EXPECT_EQ(healthy.read_until("PONG"), "PONG\n");

    // This session holds its socket open across server shutdown; the
    // destructor must close it out rather than hang (the gtest timeout is
    // the failure mode).
    holder = std::make_unique<StatusClient>(kPort);
  }
  EXPECT_TRUE(holder->peer_closed()) << "shutdown must hang up held sessions";
  // Port frees even though a client never hung up on its own.
  StatusServer again(kPort, [] { return NodeStatus{}; });
  EXPECT_EQ(again.port(), kPort);
}

TEST(StatusEndpointTest, BuilderRejectsStatusOnSimTransport) {
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(4, Duration::millis(10), /*x=*/4))
      .pacemaker("lumiere")
      .core("chained-hotstuff")
      .seed(1);
  ObsSpec spec;
  spec.status_base_port = kStatusBase;
  builder.observability(spec);
  EXPECT_THROW(Cluster{builder}, std::invalid_argument);
}

}  // namespace
}  // namespace lumiere::obs
