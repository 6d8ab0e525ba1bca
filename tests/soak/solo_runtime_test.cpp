// SoloNodeRuntime end-to-end: an in-process cluster of four standalone
// replica stacks over real TCP — the same stack tools/lumiere_node hosts
// one-per-process — exercising the soak cluster's core promises without
// fork/exec:
//
//   * the cluster commits over real sockets,
//   * a torn-down replica rebuilds from the shared spec, reconnects and
//     backfills its history through block sync and resumes committing
//     (crash recovery),
//   * the admin control plane applies live on the driver thread.
#include "runtime/solo_node.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/ledger_oracles.h"

namespace lumiere::runtime {
namespace {

// Port block disjoint from the transport (23xxx/25xxx) and obs (27xxx)
// suites; the soak suite is RUN_SERIAL so nothing shares it.
constexpr std::uint16_t kTcpBase = 28000;
constexpr std::uint16_t kStatusBase = 28040;
constexpr const char* kToken = "test-token";

ClusterSpec soak_spec() {
  ClusterSpec spec;
  spec.n = 4;
  spec.core = "chained-hotstuff";
  spec.pacemaker = "lumiere";
  spec.seed = 909;
  spec.tcp_base_port = kTcpBase;
  spec.status_base_port = kStatusBase;
  spec.admin_token = kToken;
  return spec;
}

/// One replica + the thread driving it (the role a whole lumiere_node
/// process plays in the real soak cluster).
struct Host {
  std::unique_ptr<SoloNodeRuntime> runtime;
  std::thread thread;
  std::atomic<bool> stop{false};

  void start() {
    stop.store(false);
    thread = std::thread([this] {
      while (!stop.load(std::memory_order_relaxed)) {
        runtime->run_for(std::chrono::milliseconds(50));
      }
    });
  }
  void halt() {
    stop.store(true);
    if (thread.joinable()) thread.join();
  }
};

/// Minimal blocking line client for the status/admin endpoint.
class AdminClient {
 public:
  explicit AdminClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() failed");
    }
  }
  ~AdminClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  std::string roundtrip(const std::string& line) {
    const std::string framed = line + "\n";
    if (::send(fd_, framed.data(), framed.size(), 0) != static_cast<ssize_t>(framed.size())) {
      return "(send failed)";
    }
    std::string reply;
    char c = 0;
    while (::recv(fd_, &c, 1, 0) == 1 && c != '\n') reply.push_back(c);
    return reply;
  }

 private:
  int fd_ = -1;
};

std::uint64_t best_commit(const std::vector<std::unique_ptr<Host>>& hosts, ProcessId skip) {
  std::uint64_t best = 0;
  for (const auto& host : hosts) {
    if (host->runtime == nullptr || host->runtime->id() == skip) continue;
    best = std::max(best, host->runtime->status().last_commit_height);
  }
  return best;
}

fuzz::NodeLedgerData ledger_data(const SoloNodeRuntime& runtime, bool restarted) {
  fuzz::NodeLedgerData data;
  data.node = runtime.id();
  data.restarted = restarted;
  data.records = ledger_records(runtime.node().ledger());
  return data;
}

TEST(SoloRuntimeTest, ClusterCommitsRestartRecoversAndAdminApplies) {
  const ClusterSpec spec = soak_spec();
  std::vector<std::unique_ptr<Host>> hosts;
  for (ProcessId id = 0; id < spec.n; ++id) {
    hosts.push_back(std::make_unique<Host>());
    hosts.back()->runtime = std::make_unique<SoloNodeRuntime>(spec, id);
  }
  for (auto& host : hosts) host->start();

  // Phase 1 — the four stacks commit over real sockets.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool all_committing = false;
  while (!all_committing && std::chrono::steady_clock::now() < deadline) {
    all_committing = true;
    for (const auto& host : hosts) {
      if (host->runtime->status().last_commit_height == 0) all_committing = false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ASSERT_TRUE(all_committing) << "cluster never started committing over TCP";

  // Phase 2 — replica 1 dies (stack destroyed: all state lost, ports
  // freed), rebuilds from the same spec, reconnects and must commit past
  // the cluster's height at its restart.
  hosts[1]->halt();
  hosts[1]->runtime.reset();
  const std::uint64_t watermark = best_commit(hosts, /*skip=*/1);
  ASSERT_GT(watermark, 0U);
  hosts[1]->runtime = std::make_unique<SoloNodeRuntime>(spec, 1);
  hosts[1]->start();

  bool recovered = false;
  const auto recover_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!recovered && std::chrono::steady_clock::now() < recover_deadline) {
    recovered = hosts[1]->runtime->status().last_commit_height > watermark;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_TRUE(recovered) << "restarted replica never committed beyond watermark " << watermark;

  // Its driver stopped, the restarted ledger is inspectable: block sync
  // fetched back the history it lost, so it is a full prefix of the chain
  // — it starts where a survivor's starts and agrees with it entry by
  // entry.
  hosts[1]->halt();
  hosts[0]->halt();
  const fuzz::NodeLedgerData survivor = ledger_data(*hosts[0]->runtime, false);
  const fuzz::NodeLedgerData restarted = ledger_data(*hosts[1]->runtime, true);
  ASSERT_FALSE(survivor.records.empty());
  ASSERT_FALSE(restarted.records.empty());
  EXPECT_EQ(restarted.records.front().view, survivor.records.front().view);
  EXPECT_EQ(restarted.records.front().hash.hex(), survivor.records.front().hash.hex());
  const auto violation = fuzz::check_safety_data({survivor, restarted});
  EXPECT_EQ(violation, std::nullopt) << *violation;
  const auto monotone = fuzz::check_view_monotonicity_data({restarted});
  EXPECT_EQ(monotone, std::nullopt) << *monotone;

  // Phase 3 — the admin control plane, against a live driver (node 2).
  {
    AdminClient client(static_cast<std::uint16_t>(kStatusBase + 2));
    EXPECT_EQ(client.roundtrip("ISOLATE"), "ERR auth required");
    EXPECT_EQ(client.roundtrip("AUTH wrong"), "ERR bad token");
    EXPECT_EQ(client.roundtrip(std::string("AUTH ") + kToken), "OK");
    EXPECT_EQ(client.roundtrip("DROP 0 0.5"), "OK");
    EXPECT_EQ(client.roundtrip("DROP 9 0.5"), "ERR peer out of range");
    EXPECT_EQ(client.roundtrip("BEHAVIOR no-such-behavior"),
              "ERR unknown behavior 'no-such-behavior'");
    EXPECT_EQ(client.roundtrip("CRASH"), "ERR crash disabled")
        << "in-process runtimes must never _exit the harness";
    EXPECT_EQ(client.roundtrip("BEHAVIOR equivocator"), "OK");
    EXPECT_EQ(client.roundtrip("HEAL"), "OK");
  }
  EXPECT_TRUE(hosts[2]->runtime->status().ever_byzantine)
      << "live behavior flip must mark the node for the oracles";

  for (auto& host : hosts) host->halt();
}

}  // namespace
}  // namespace lumiere::runtime
