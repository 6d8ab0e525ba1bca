// fuzz_repro: replay one scenario-fuzz case byte-identically from its
// seed (plus optional shrink deltas), print the sampled scenario, the
// oracle verdicts and the run digest.
//
//   fuzz_repro --seed N                      replay the full sampled case
//   fuzz_repro --seed N --drop-events 1,3
//              --drop-behaviors 0 --n 4      replay a shrunken case
//   fuzz_repro --seed N --shrink             shrink a failing seed and
//                                            print the minimal repro line
//
// Exit code 0 = every oracle passed, 1 = a violation (printed), 2 = bad
// usage. The digest is SHA-256 over the structured trace, every ledger
// and the message totals: two invocations printing the same digest
// executed the same run, event for event.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/engine.h"

namespace {

using lumiere::fuzz::CaseDeltas;
using lumiere::fuzz::FuzzCase;
using lumiere::fuzz::RunResult;

std::vector<std::size_t> parse_index_list(const std::string& arg) {
  std::vector<std::size_t> out;
  std::istringstream in(arg);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (!token.empty()) out.push_back(std::stoull(token));
  }
  return out;
}

int usage() {
  std::cerr << "usage: fuzz_repro --seed N [--drop-events i,j] [--drop-behaviors k]\n"
               "                  [--n M] [--no-workload] [--no-dissem] [--shrink]\n"
               "                  [--transport=sim|tcp] [--tcp-base-port P]\n"
               "  --transport=tcp replays the case on real localhost sockets\n"
               "  (sim-only delay/topology elements stripped; the digest is not\n"
               "  comparable with the sim run — the oracle verdict is)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool do_shrink = false;
  bool tcp = false;
  std::uint16_t tcp_base_port = 23500;
  CaseDeltas deltas;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 0);
      have_seed = true;
    } else if (arg == "--drop-events") {
      deltas.drop_events = parse_index_list(next());
    } else if (arg == "--drop-behaviors") {
      deltas.drop_behaviors = parse_index_list(next());
    } else if (arg == "--n") {
      deltas.n = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--no-workload") {
      deltas.drop_workload = true;
    } else if (arg == "--no-dissem") {
      deltas.drop_dissem = true;
    } else if (arg == "--shrink") {
      do_shrink = true;
    } else if (arg == "--transport=tcp" || arg == "--transport-tcp") {
      tcp = true;
    } else if (arg == "--transport=sim") {
      tcp = false;
    } else if (arg == "--transport") {
      const std::string value = next();
      if (value == "tcp") {
        tcp = true;
      } else if (value == "sim") {
        tcp = false;
      } else {
        std::cerr << "unknown transport: " << value << "\n";
        return usage();
      }
    } else if (arg == "--tcp-base-port") {
      tcp_base_port = static_cast<std::uint16_t>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return usage();
    }
  }
  if (!have_seed) return usage();

  const FuzzCase base = lumiere::fuzz::sample_case(seed);
  const FuzzCase replayed = deltas.empty() ? base : lumiere::fuzz::apply_deltas(base, deltas);
  std::cout << "case:   " << lumiere::fuzz::describe(replayed) << "\n";
  std::cout << "dissem: " << (replayed.dissem ? "enabled" : "disabled")
            << " (data-dissemination layer; --no-dissem is a shrink dimension)\n";

  const RunResult result = tcp ? lumiere::fuzz::run_case_tcp(replayed, tcp_base_port)
                               : lumiere::fuzz::run_case(replayed);
  if (tcp) std::cout << "transport: tcp (base port " << tcp_base_port << ")\n";
  std::cout << "digest: " << result.digest.hex() << "\n";
  if (result.ok()) {
    std::cout << "result: every oracle passed\n";
    return 0;
  }
  for (const std::string& violation : result.violations) {
    std::cout << "FAIL:   " << violation << "\n";
  }

  if (do_shrink) {
    const auto shrunk = lumiere::fuzz::shrink(
        seed, [](const FuzzCase& candidate) { return !lumiere::fuzz::run_case(candidate).ok(); });
    std::cout << "shrunk (" << shrunk.attempts
              << " candidate runs): " << lumiere::fuzz::describe(shrunk.minimal) << "\n";
    std::cout << "repro:  " << lumiere::fuzz::repro_line(seed, shrunk.deltas) << "\n";
  } else {
    std::cout << "repro:  " << lumiere::fuzz::repro_line(seed, deltas)
              << "   (add --shrink to minimize)\n";
  }
  return 1;
}
