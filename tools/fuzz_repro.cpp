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
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/engine.h"

namespace {

using lumiere::fuzz::CaseDeltas;
using lumiere::fuzz::FuzzCase;
using lumiere::fuzz::RunResult;

/// Parses all of `text` as an unsigned number (strtoull base 0: decimal,
/// 0x hex, 0 octal) no larger than `max`; false on junk, a sign or
/// overflow, so a malformed flag is a usage error, not an abort.
bool parse_number(const std::string& text, std::uint64_t max, std::uint64_t& out) {
  if (text.empty() || std::isdigit(static_cast<unsigned char>(text[0])) == 0) return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 0);
  return errno == 0 && *end == '\0' && out <= max;
}

std::optional<std::vector<std::size_t>> parse_index_list(const std::string& arg) {
  std::vector<std::size_t> out;
  std::istringstream in(arg);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    std::uint64_t index = 0;
    if (!parse_number(token, SIZE_MAX, index)) return std::nullopt;
    out.push_back(index);
  }
  return out;
}

int usage() {
  std::cerr << "usage: fuzz_repro --seed N [--drop-events i,j] [--drop-behaviors k]\n"
               "                  [--n M] [--no-workload] [--no-dissem] [--shrink]\n"
               "                  [--transport=sim|tcp] [--tcp-base-port P]\n"
               "  --n M shrinks the cluster to M >= 4 nodes (0 keeps the sampled n)\n"
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
    std::uint64_t number = 0;
    if (arg == "--seed") {
      if (!parse_number(next(), UINT64_MAX, seed)) return usage();
      have_seed = true;
    } else if (arg == "--drop-events" || arg == "--drop-behaviors") {
      auto list = parse_index_list(next());
      if (!list.has_value()) return usage();
      (arg == "--drop-events" ? deltas.drop_events : deltas.drop_behaviors) = std::move(*list);
    } else if (arg == "--n") {
      // 0 keeps the sampled n; a shrunken cluster still needs n >= 4.
      if (!parse_number(next(), UINT32_MAX, number) || (number != 0 && number < 4)) {
        return usage();
      }
      deltas.n = static_cast<std::uint32_t>(number);
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
      if (!parse_number(next(), UINT16_MAX, number)) return usage();
      tcp_base_port = static_cast<std::uint16_t>(number);
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
  std::cout << "dissem: " << (replayed.spec.dissem ? "enabled" : "disabled")
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
