// soak: multi-process robustness orchestrator.
//
// Spawns an n-process TCP cluster (one tools/lumiere_node per replica),
// then runs a scripted disruption schedule against the live processes
// through their status/admin endpoints:
//
//   t=0.15D  runtime link degradation  (DROP/DELAY on one replica)
//   t=0.25D  kill -9 one replica       (real crash: all state lost)
//   t=0.45D  restart it                (rejoin + block-sync backfill,
//                                       as incarnation 1: fresh client ids)
//   t=0.55D  BEHAVIOR equivocator flip (live adversary, within f)
//   t=0.70D  HEAL the degraded links   (last disruption)
//   t=D      download every ledger, run the data-form oracles
//
// The verdict — safety over the downloaded ledgers, per-node view
// monotonicity, exactly-once, liveness after the last disruption, no
// wedged replica, and the restarted replica provably committing new
// entries and its own clients' requests after rejoin — is written as
// JSON (--out) and summarized on
// stdout. It also counts `restarted_backfilled`: the restarted replica's
// entries at or below the restart watermark, i.e. the pre-crash history
// block sync fetched back for it. Exit 0 = every
// check passed, 1 = a violation, 2 = usage/setup failure.
//
// Per-node logs, the shared spec file and the raw ledger dumps land in
// --work-dir (default ./soak-out) for post-mortems and CI artifacts.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/ledger_oracles.h"
#include "runtime/spec_io.h"

namespace {

using lumiere::ProcessId;
using lumiere::View;
using lumiere::fuzz::NodeLedgerData;
using lumiere::runtime::ClusterSpec;
using lumiere::runtime::LedgerRecord;

constexpr const char* kAdminToken = "soak";

// ---------------------------------------------------------------- status
// Minimal line-protocol client for the status/admin endpoint. Every
// helper opens a fresh connection: sessions are cheap, and a replica
// that died mid-conversation must not wedge the orchestrator.

int connect_to(std::uint16_t port, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) return fd;
    ::close(fd);
    if (std::chrono::steady_clock::now() >= deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

bool send_line(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n = ::send(fd, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads until a line satisfying `terminal` arrives (inclusive), or the
/// deadline/peer-close. Returns everything read.
std::optional<std::string> read_reply(int fd, bool multi_line, int timeout_ms) {
  std::string buffer;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  char chunk[2048];
  // Bytes already searched for the END line: each chunk is scanned once
  // (from 4 bytes back, where a "\nEND\n" straddling the chunk boundary
  // starts), so a ~20 MB LEDGER reply reads in linear time.
  std::size_t scanned = 0;
  while (true) {
    // A single-line reply is complete at its first newline; a multi-line
    // reply (STATUS, LEDGER) at its "END" line. ERR replies are always
    // one line, even for multi-line commands.
    const std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      if (!multi_line || buffer.rfind("ERR", 0) == 0) return buffer.substr(0, newline);
      const std::size_t from = scanned > 4 ? scanned - 4 : 0;
      if (buffer.find("\nEND\n", from) != std::string::npos || buffer.rfind("END\n", 0) == 0) {
        return buffer;
      }
      scanned = buffer.size();
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return std::nullopt;
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count();
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(std::min<long long>(left, 100)));
    if (ready < 0) return std::nullopt;
    if (ready == 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return std::nullopt;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

/// One authenticated admin command; nullopt when the endpoint is
/// unreachable or times out.
std::optional<std::string> admin(std::uint16_t port, const std::string& command, bool multi_line,
                                 int timeout_ms = 5000) {
  const int fd = connect_to(port, timeout_ms);
  if (fd < 0) return std::nullopt;
  std::optional<std::string> reply;
  if (send_line(fd, std::string("AUTH ") + kAdminToken)) {
    const auto auth_reply = read_reply(fd, /*multi_line=*/false, timeout_ms);
    if (auth_reply.has_value() && auth_reply->rfind("OK", 0) == 0 && send_line(fd, command)) {
      reply = read_reply(fd, multi_line, timeout_ms);
    }
  }
  ::close(fd);
  return reply;
}

/// Parsed STATUS snapshot (key-value lines until END).
std::optional<std::map<std::string, std::string>> query_status(std::uint16_t port,
                                                               int timeout_ms = 3000) {
  const int fd = connect_to(port, timeout_ms);
  if (fd < 0) return std::nullopt;
  std::optional<std::map<std::string, std::string>> result;
  if (send_line(fd, "STATUS")) {
    const auto reply = read_reply(fd, /*multi_line=*/true, timeout_ms);
    if (reply.has_value()) {
      std::map<std::string, std::string> fields;
      std::istringstream in(*reply);
      std::string line;
      while (std::getline(in, line)) {
        if (line == "END") break;
        const std::size_t space = line.find(' ');
        if (space != std::string::npos) fields[line.substr(0, space)] = line.substr(space + 1);
      }
      result = std::move(fields);
    }
  }
  ::close(fd);
  return result;
}

std::uint64_t field_u64(const std::map<std::string, std::string>& fields, const char* key) {
  const auto it = fields.find(key);
  return it == fields.end() ? 0 : std::strtoull(it->second.c_str(), nullptr, 10);
}

// --------------------------------------------------------------- process

struct Replica {
  ProcessId id = lumiere::kNoProcess;
  pid_t pid = -1;
  std::uint16_t status_port = 0;
  bool restarted = false;
  bool flipped_byzantine = false;
};

pid_t spawn_node(const std::string& node_bin, const std::string& spec_path, ProcessId id,
                 std::uint32_t incarnation, const std::string& log_path) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child: logs to its own file, then exec.
  const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log_fd >= 0) {
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::close(log_fd);
  }
  const std::string id_arg = std::to_string(id);
  const std::string incarnation_arg = std::to_string(incarnation);
  const char* argv[] = {node_bin.c_str(), "--spec",         spec_path.c_str(),
                        "--id",           id_arg.c_str(),   "--incarnation",
                        incarnation_arg.c_str(),             "--allow-crash",
                        nullptr};
  ::execv(node_bin.c_str(), const_cast<char* const*>(argv));
  std::perror("soak: execv");
  ::_exit(127);
}

// ----------------------------------------------------------------- misc

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

int usage() {
  std::cerr
      << "usage: soak [--n N] [--duration-s S] [--seed K] [--core NAME] [--pacemaker NAME]\n"
         "            [--node-bin PATH] [--tcp-base-port P] [--status-base-port P]\n"
         "            [--work-dir DIR] [--out verdict.json] [--pipeline]\n"
         "            [--second-equivocation]\n"
         "  Scripted disruption schedule: DROP/DELAY shaping, kill -9 + restart,\n"
         "  live BEHAVIOR equivocator flip, HEAL — then ledger download + oracles.\n"
         "  --second-equivocation repents node 2 and re-flips it, so the cluster\n"
         "  weathers two equivocation rounds (block sync must empty \"stalled\").\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t n = 5;
  long long duration_s = 45;
  std::uint64_t seed = 1;
  std::string core = "chained-hotstuff";
  std::string pacemaker = "lumiere";
  std::string node_bin;
  std::uint16_t tcp_base_port = 28100;
  std::uint16_t status_base_port = 28200;
  std::string work_dir = "soak-out";
  std::string out_path;
  bool pipeline = false;
  bool second_equivocation = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--n") {
      n = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--duration-s") {
      duration_s = std::strtoll(next(), nullptr, 0);
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--core") {
      core = next();
    } else if (arg == "--pacemaker") {
      pacemaker = next();
    } else if (arg == "--node-bin") {
      node_bin = next();
    } else if (arg == "--tcp-base-port") {
      tcp_base_port = static_cast<std::uint16_t>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--status-base-port") {
      status_base_port = static_cast<std::uint16_t>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--work-dir") {
      work_dir = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--pipeline") {
      pipeline = true;
    } else if (arg == "--second-equivocation") {
      second_equivocation = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return usage();
    }
  }
  if (n < 4 || duration_s < 10) {
    std::cerr << "soak: need --n >= 4 (disruption script uses nodes 1..3) and "
                 "--duration-s >= 10\n";
    return 2;
  }
  if (node_bin.empty()) {
    // Sibling of this binary by default.
    const std::string self = argv[0];
    const std::size_t slash = self.rfind('/');
    node_bin = (slash == std::string::npos ? std::string(".") : self.substr(0, slash)) +
               "/lumiere_node";
  }
  ::mkdir(work_dir.c_str(), 0755);

  // ---- shared spec -------------------------------------------------
  ClusterSpec spec;
  spec.n = n;
  spec.core = core;
  spec.pacemaker = pacemaker;
  spec.seed = seed;
  spec.tcp_base_port = tcp_base_port;
  spec.status_base_port = status_base_port;
  spec.admin_token = kAdminToken;
  spec.pipeline = pipeline;
  const std::string spec_path = work_dir + "/cluster.spec";
  {
    std::ofstream out(spec_path);
    if (!out) {
      std::cerr << "soak: cannot write " << spec_path << "\n";
      return 2;
    }
    out << lumiere::runtime::serialize(spec);
  }

  std::vector<std::string> violations;
  const auto violation = [&violations](std::string what) {
    std::cerr << "soak: VIOLATION: " << what << "\n";
    violations.push_back(std::move(what));
  };

  // ---- spawn -------------------------------------------------------
  std::vector<Replica> replicas(n);
  const auto log_path = [&](ProcessId id) {
    return work_dir + "/node" + std::to_string(id) + ".log";
  };
  for (ProcessId id = 0; id < n; ++id) {
    replicas[id].id = id;
    replicas[id].status_port = static_cast<std::uint16_t>(status_base_port + id);
    replicas[id].pid = spawn_node(node_bin, spec_path, id, /*incarnation=*/0, log_path(id));
    if (replicas[id].pid < 0) {
      std::cerr << "soak: fork failed\n";
      return 2;
    }
  }
  const auto kill_all = [&replicas] {
    for (Replica& replica : replicas) {
      if (replica.pid > 0) ::kill(replica.pid, SIGTERM);
    }
    for (Replica& replica : replicas) {
      if (replica.pid > 0) ::waitpid(replica.pid, nullptr, 0);
      replica.pid = -1;
    }
  };
  for (const Replica& replica : replicas) {
    if (!query_status(replica.status_port, 15'000).has_value()) {
      std::cerr << "soak: node " << replica.id << " status endpoint never came up (see "
                << log_path(replica.id) << ")\n";
      kill_all();
      return 2;
    }
  }
  std::cout << "soak: " << n << " replicas up (tcp " << tcp_base_port << "+, status "
            << status_base_port << "+), duration " << duration_s << "s\n";

  // ---- scripted schedule -------------------------------------------
  const auto start = std::chrono::steady_clock::now();
  const auto at_fraction = [&](double f) {
    return start + std::chrono::milliseconds(static_cast<long long>(duration_s * 1000 * f));
  };
  const auto sleep_until = [&](std::chrono::steady_clock::time_point t) {
    std::this_thread::sleep_until(t);
  };
  // Unexpected deaths checked at every step; only our own kill -9 of
  // node 1 is sanctioned (and CRASH would be, were the script to use it).
  const auto check_children = [&](ProcessId sanctioned) {
    for (Replica& replica : replicas) {
      if (replica.pid <= 0 || replica.id == sanctioned) continue;
      int status = 0;
      if (::waitpid(replica.pid, &status, WNOHANG) == replica.pid) {
        std::ostringstream out;
        out << "node " << replica.id << " died unexpectedly (status " << status << ")";
        violation(out.str());
        replica.pid = -1;
      }
    }
  };

  const ProcessId kill_target = 1;
  const ProcessId flip_target = 2;
  const ProcessId shape_target = 3;

  sleep_until(at_fraction(0.15));
  check_children(lumiere::kNoProcess);
  if (!admin(replicas[shape_target].status_port, "DROP 0 0.25", false).has_value() ||
      !admin(replicas[shape_target].status_port, "DELAY 4 5", false).has_value()) {
    violation("runtime DROP/DELAY shaping command failed on node 3");
  }
  std::cout << "soak: [0.15] node 3 links degraded (DROP 0 0.25, DELAY 4 5ms)\n";

  sleep_until(at_fraction(0.25));
  check_children(lumiere::kNoProcess);
  ::kill(replicas[kill_target].pid, SIGKILL);
  ::waitpid(replicas[kill_target].pid, nullptr, 0);
  replicas[kill_target].pid = -1;
  std::cout << "soak: [0.25] node 1 killed (SIGKILL)\n";

  sleep_until(at_fraction(0.45));
  check_children(kill_target);
  // The progress watermark the restarted replica must commit beyond:
  // the cluster's best commit height at restart time.
  std::uint64_t watermark = 0;
  for (const Replica& replica : replicas) {
    if (replica.pid <= 0) continue;
    const auto status = query_status(replica.status_port);
    if (status.has_value()) {
      watermark = std::max(watermark, field_u64(*status, "last_commit_height"));
    }
  }
  replicas[kill_target].pid =
      spawn_node(node_bin, spec_path, kill_target, /*incarnation=*/1, log_path(kill_target));
  replicas[kill_target].restarted = true;
  std::cout << "soak: [0.45] node 1 restarted (watermark view " << watermark << ")\n";

  sleep_until(at_fraction(0.55));
  check_children(lumiere::kNoProcess);
  const auto flip_reply = admin(replicas[flip_target].status_port, "BEHAVIOR equivocator", false);
  if (!flip_reply.has_value() || flip_reply->rfind("OK", 0) != 0) {
    violation("BEHAVIOR equivocator flip on node 2 failed: " + flip_reply.value_or("(timeout)"));
  } else {
    replicas[flip_target].flipped_byzantine = true;
  }
  std::cout << "soak: [0.55] node 2 flipped to equivocator\n";

  if (second_equivocation) {
    // A second round from the SAME node (the ever-faulty budget at n=5 is
    // f=1): repent, then flip again. Each round can wedge fresh victims
    // on the losing variant; block sync must un-wedge all of them.
    sleep_until(at_fraction(0.60));
    check_children(lumiere::kNoProcess);
    if (!admin(replicas[flip_target].status_port, "BEHAVIOR honest", false).has_value()) {
      violation("BEHAVIOR honest repentance on node 2 failed");
    }
    std::cout << "soak: [0.60] node 2 repented (honest)\n";
    sleep_until(at_fraction(0.65));
    check_children(lumiere::kNoProcess);
    if (!admin(replicas[flip_target].status_port, "BEHAVIOR equivocator", false).has_value()) {
      violation("second BEHAVIOR equivocator flip on node 2 failed");
    }
    std::cout << "soak: [0.65] node 2 flipped to equivocator again (round two)\n";
  }

  sleep_until(at_fraction(0.70));
  check_children(lumiere::kNoProcess);
  if (!admin(replicas[shape_target].status_port, "HEAL", false).has_value()) {
    violation("HEAL on node 3 failed");
  }
  std::cout << "soak: [0.70] node 3 healed — last disruption over\n";

  // ---- liveness after the last disruption --------------------------
  sleep_until(at_fraction(0.75));
  check_children(lumiere::kNoProcess);
  std::map<ProcessId, View> baseline;
  for (const Replica& replica : replicas) {
    if (replica.flipped_byzantine) continue;
    const auto status = query_status(replica.status_port);
    if (status.has_value()) {
      baseline[replica.id] = static_cast<View>(field_u64(*status, "last_commit_height"));
    }
  }

  sleep_until(at_fraction(1.0));
  check_children(lumiere::kNoProcess);

  // ---- ledger download + data-form oracles -------------------------
  std::vector<NodeLedgerData> dumps;
  for (const Replica& replica : replicas) {
    const auto reply = admin(replica.status_port, "LEDGER", /*multi_line=*/true, 10'000);
    if (!reply.has_value() || reply->rfind("ERR", 0) == 0) {
      violation("LEDGER download from node " + std::to_string(replica.id) + " failed: " +
                reply.value_or("(timeout)"));
      continue;
    }
    std::ofstream raw(work_dir + "/node" + std::to_string(replica.id) + ".ledger");
    raw << *reply;
    std::string error;
    const auto records = lumiere::runtime::parse_ledger(*reply, error);
    if (!records.has_value()) {
      violation("ledger dump from node " + std::to_string(replica.id) + " malformed: " + error);
      continue;
    }
    NodeLedgerData data;
    data.node = replica.id;
    const auto status = query_status(replica.status_port);
    data.ever_byzantine = replica.flipped_byzantine ||
                          (status.has_value() && field_u64(*status, "ever_byzantine") != 0);
    data.records = std::move(*records);
    dumps.push_back(std::move(data));
  }

  const auto add = [&](std::optional<std::string> v) {
    if (v.has_value()) violation(std::move(*v));
  };
  add(lumiere::fuzz::check_safety_data(dumps));
  add(lumiere::fuzz::check_view_monotonicity_data(dumps));
  add(lumiere::fuzz::check_exactly_once_data(dumps));
  // Commit liveness. SOME honest ledger growing after the last disruption
  // is the cluster-wide bar; per node, no honest replica may be wedged
  // (block sync backfills every ancestry gap); and the restarted replica
  // must commit beyond the cluster's height at its restart.
  const bool progressed = std::any_of(dumps.begin(), dumps.end(), [&](const NodeLedgerData& d) {
    const auto it = baseline.find(d.node);
    return !d.ever_byzantine && it != baseline.end() && lumiere::fuzz::newest_view(d) > it->second;
  });
  if (!baseline.empty() && !progressed) {
    violation("liveness: no honest node committed anything after the last disruption");
  }
  std::vector<ProcessId> stalled;
  add(lumiere::fuzz::check_no_stall_data(dumps, baseline, lumiere::fuzz::kStallGraceViews,
                                         &stalled));
  add(lumiere::fuzz::check_commit_progress_data(dumps, kill_target,
                                                static_cast<View>(watermark)));
  // The restarted process's clients (fresh ids: it runs as incarnation
  // 1) must get requests committed, not just its ledger.
  std::uint64_t restarted_requests = 0;
  if (const auto status = query_status(replicas[kill_target].status_port); status.has_value()) {
    restarted_requests = field_u64(*status, "requests_committed");
  }
  if (restarted_requests == 0) {
    violation("workload: the restarted replica committed none of its own requests");
  }
  std::size_t restarted_backfilled = 0;
  for (const NodeLedgerData& d : dumps) {
    if (d.node != kill_target) continue;
    restarted_backfilled = static_cast<std::size_t>(
        std::count_if(d.records.begin(), d.records.end(), [&](const LedgerRecord& r) {
          return r.view <= static_cast<View>(watermark);
        }));
  }

  kill_all();

  // ---- verdict -----------------------------------------------------
  std::ostringstream json;
  json << "{\n  \"ok\": " << (violations.empty() ? "true" : "false") << ",\n  \"n\": " << n
       << ",\n  \"seed\": " << seed << ",\n  \"core\": \"" << core << "\",\n  \"duration_s\": "
       << duration_s << ",\n  \"restart_watermark\": " << watermark
       << ",\n  \"restarted_backfilled\": " << restarted_backfilled
       << ",\n  \"restarted_requests_committed\": " << restarted_requests
       << ",\n  \"stalled\": [";
  for (std::size_t i = 0; i < stalled.size(); ++i) json << (i == 0 ? "" : ", ") << stalled[i];
  json << "],\n  \"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    json << (i == 0 ? "" : ",") << "\n    \"" << json_escape(violations[i]) << "\"";
  }
  json << (violations.empty() ? "" : "\n  ") << "],\n  \"nodes\": [";
  for (std::size_t i = 0; i < dumps.size(); ++i) {
    const NodeLedgerData& d = dumps[i];
    json << (i == 0 ? "" : ",") << "\n    {\"id\": " << d.node << ", \"entries\": "
         << d.records.size() << ", \"newest_view\": " << lumiere::fuzz::newest_view(d)
         << ", \"ever_byzantine\": " << (d.ever_byzantine ? "true" : "false")
         << ", \"restarted\": " << (replicas[d.node].restarted ? "true" : "false") << "}";
  }
  json << (dumps.empty() ? "" : "\n  ") << "]\n}\n";
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json.str();
  }
  std::cout << json.str();
  std::cout << (violations.empty() ? "soak: PASS\n" : "soak: FAIL\n");
  return violations.empty() ? 0 : 1;
}
