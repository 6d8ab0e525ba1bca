// Shared helpers for the reproduction benches.
//
// Every bench binary runs bounded-time with no arguments, takes the flags
// parse_bench_args accepts (bench_micro takes google-benchmark's), and
// prints the rows/series of the paper artifact it regenerates plus the
// supporting sweeps. Absolute values are simulator time; the claims under
// test are *shapes* (who wins, growth order, crossover), and the claim
// tests in tests/integration check bench_table1's reading guides.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/cluster.h"
#include "runtime/experiment.h"

namespace lumiere::bench {

using runtime::Cluster;
using runtime::kTable1Delta;
using runtime::ScenarioBuilder;
using runtime::table1_scenario;

inline double to_ms(Duration d) { return static_cast<double>(d.ticks()) / 1000.0; }

/// Common bench flags. Every bench runs with no arguments; CI passes
///   --quick          bound the iteration count / sweep size
///   --json <path>    additionally write the measured rows as JSON
///   --dissem={on,off}  ablate the data-dissemination layer (src/dissem/):
///                    on = proposals order certified batch references,
///                    off = legacy inline batches. Unset = each bench's
///                    default (off, matching the historical numbers).
/// Anything else prints the usage line and exits 2 before any run starts.
struct BenchArgs {
  bool quick = false;
  std::string json_path;  ///< empty = no JSON artifact
  std::optional<bool> dissem;
};

inline BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      args.quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      args.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--dissem=on") == 0) {
      args.dissem = true;
    } else if (std::strcmp(argv[i], "--dissem=off") == 0) {
      args.dissem = false;
    } else {
      std::fprintf(stderr,
                   "%s: unknown argument \"%s\"\n"
                   "usage: %s [--quick] [--json <path>] [--dissem={on,off}]\n",
                   argv[0], argv[i], argv[0]);
      std::exit(2);
    }
  }
  return args;
}

/// Machine-readable bench output: a flat array of row objects, written as
///   {"bench": "<name>", "rows": [{...}, ...]}
/// Values are numbers, strings, or null (from empty optionals), so the
/// perf trajectory can be diffed across CI runs without parsing tables.
class JsonRows {
 public:
  class Row {
   public:
    Row& set(const std::string& key, double value) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", value);
      fields_.emplace_back(key, buf);
      return *this;
    }
    Row& set(const std::string& key, std::uint64_t value) {
      fields_.emplace_back(key, std::to_string(value));
      return *this;
    }
    Row& set(const std::string& key, const std::string& value) {
      // Built with append rather than operator+ chains: GCC 12's
      // -Wrestrict false-positives on the latter under -O2 (PR105651).
      std::string quoted;
      quoted.reserve(value.size() + 2);
      quoted.push_back('"');
      quoted.append(escape(value));
      quoted.push_back('"');
      fields_.emplace_back(key, std::move(quoted));
      return *this;
    }
    Row& set(const std::string& key, const char* value) {
      return set(key, std::string(value));
    }
    /// Optional duration in fractional milliseconds; empty -> null.
    Row& set_ms(const std::string& key, std::optional<Duration> value) {
      if (!value) {
        fields_.emplace_back(key, "null");
        return *this;
      }
      return set(key, to_ms(*value));
    }
    Row& set_count(const std::string& key, std::optional<std::uint64_t> value) {
      if (!value) {
        fields_.emplace_back(key, "null");
        return *this;
      }
      return set(key, *value);
    }

   private:
    friend class JsonRows;
    static std::string escape(const std::string& raw) {
      std::string out;
      for (const char c : raw) {
        if (c == '"' || c == '\\') out.push_back('\\');
        if (c == '\n') {
          out += "\\n";
          continue;
        }
        out.push_back(c);
      }
      return out;
    }
    std::vector<std::pair<std::string, std::string>> fields_;  // key -> encoded value
  };

  Row& add_row() {
    rows_.emplace_back();
    return rows_.back();
  }

  /// Writes the artifact; returns false (with a note on stderr) on I/O
  /// failure so CI fails visibly rather than uploading nothing.
  [[nodiscard]] bool write(const std::string& path, const std::string& bench) const {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "bench: cannot open %s for writing\n", path.c_str());
      return false;
    }
    out << "{\"bench\": \"" << Row::escape(bench) << "\", \"rows\": [";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      out << (r == 0 ? "\n" : ",\n") << "  {";
      const auto& fields = rows_[r].fields_;
      for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) out << ", ";
        out << "\"" << Row::escape(fields[i].first) << "\": " << fields[i].second;
      }
      out << "}";
    }
    out << "\n]}\n";
    return out.good();
  }

 private:
  std::vector<Row> rows_;
};

/// The protocols compared in Table 1, plus RareSync (the other
/// quadratic-optimal synchronizer the paper discusses in §6), by
/// ProtocolRegistry name.
inline std::vector<std::string> table1_protocols() {
  return {"cogsworth", "nk20", "raresync", "lp22", "fever", "basic-lumiere", "lumiere"};
}

/// Formats an optional duration in milliseconds.
inline std::string fmt_ms(std::optional<Duration> d) {
  if (!d) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", to_ms(*d));
  return buf;
}

inline std::string fmt_count(std::optional<std::uint64_t> v) {
  if (!v) return "-";
  return std::to_string(*v);
}

}  // namespace lumiere::bench
