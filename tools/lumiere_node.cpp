// lumiere_node: one replica process of a multi-process TCP cluster.
//
//   lumiere_node --spec cluster.spec --id 2 [--allow-crash] [--run-ms N]
//                [--incarnation I]
//
// Reads the shared spec file (runtime/spec_io.h), resolves it into the
// cluster's Scenario, builds exactly ONE node's stack
// (runtime/solo_node.h) and drives it until SIGTERM/SIGINT (or --run-ms
// elapses). The soak orchestrator (tools/soak) spawns n of
// these, then kills, restarts and reshapes them through their status
// endpoints while the cluster keeps committing.
//
// Exit codes: 0 clean stop, 2 usage/spec error, 137 admin CRASH.

#include <charconv>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "runtime/solo_node.h"
#include "runtime/spec_io.h"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

/// Parses all of `text` as a decimal number; false on junk or overflow
/// (never throws, so a malformed flag is a usage error, not an abort).
template <typename T>
bool parse_number(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end;
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --spec <file> --id <node> [--allow-crash] [--run-ms <n>] [--incarnation <i>]\n"
               "  --spec        cluster spec file (runtime/spec_io.h format)\n"
               "  --id          which node of the spec this process hosts\n"
               "  --allow-crash admin CRASH performs _exit(137) (soak clusters)\n"
               "  --run-ms      stop after n wall milliseconds (default: until "
               "SIGTERM)\n"
               "  --incarnation 0 at first start, +1 per restart of this node, so\n"
               "                its workload clients get fresh ids (default 0)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  lumiere::ProcessId id = lumiere::kNoProcess;
  bool allow_crash = false;
  long long run_ms = -1;
  std::uint32_t incarnation = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--spec" && i + 1 < argc) {
      spec_path = argv[++i];
    } else if (arg == "--id" && i + 1 < argc) {
      if (!parse_number(argv[++i], id)) return usage(argv[0]);
    } else if (arg == "--allow-crash") {
      allow_crash = true;
    } else if (arg == "--run-ms" && i + 1 < argc) {
      if (!parse_number(argv[++i], run_ms)) return usage(argv[0]);
    } else if (arg == "--incarnation" && i + 1 < argc) {
      if (!parse_number(argv[++i], incarnation)) return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }
  if (spec_path.empty() || id == lumiere::kNoProcess) return usage(argv[0]);

  std::ifstream in(spec_path);
  if (!in) {
    std::cerr << "lumiere_node: cannot read spec file '" << spec_path << "'\n";
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  const auto spec = lumiere::runtime::parse_spec(text.str(), error);
  if (!spec.has_value()) {
    std::cerr << "lumiere_node: " << error << "\n";
    return 2;
  }

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  try {
    lumiere::runtime::SoloNodeRuntime::Options options;
    options.allow_crash = allow_crash;
    options.incarnation = incarnation;
    // Throws std::invalid_argument listing every error of a bad spec.
    const lumiere::runtime::Scenario scenario = lumiere::runtime::ScenarioBuilder(*spec).scenario();
    lumiere::runtime::SoloNodeRuntime runtime(scenario, id, options);
    std::cout << "lumiere_node: node " << id << " up, transport port "
              << (scenario.tcp_base_port + id) << ", status port "
              << (runtime.status_port() != 0 ? runtime.status_port() : 0) << std::endl;
    // Short slices so a SIGTERM lands within ~50ms; the driver keeps the
    // sim/wall anchor continuous across calls.
    const auto slice = std::chrono::milliseconds(50);
    long long elapsed_ms = 0;
    while (!g_stop.load(std::memory_order_relaxed) && (run_ms < 0 || elapsed_ms < run_ms)) {
      runtime.run_for(slice);
      elapsed_ms += slice.count();
    }
    const lumiere::obs::NodeStatus status = runtime.status();
    std::cout << "lumiere_node: node " << id << " stopping at view " << status.view
              << ", height " << status.height << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "lumiere_node: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
