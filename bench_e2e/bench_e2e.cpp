// bench_e2e: the end-to-end benchmark, one workload per process.
//
//   bench_e2e --workload <name> [--seed N] [--seconds S] [--trace]
//             [--trace-out spans.json] [--json result.json]
//
// Untraced (the default), it runs the workload once, timing cluster
// set-up several times in pauses of the run, and reports what clients
// and operators see: request latency, throughput, CPU, messages and
// bytes per request, set-up time and peak memory. With --trace it runs
// the workload twice, plain and under timed protocol wrappers, taking
// turns slice by slice, and reports per-layer self times from the timed
// run, the tracing overhead against the plain one, and the layer
// micro-benchmarks. End-to-end numbers always come from a plain run.
//
// Every metric prints as "name value unit". Correctness checks (safety,
// exactly-once delivery, workload-specific liveness, trace passivity)
// run on every invocation; the exit code is 0 only if all pass, 1 if one
// fails and 2 on a usage error. README.md lists the workloads and
// metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "e2e/micros.h"
#include "e2e/spans.h"
#include "e2e/workloads.h"

#ifndef BENCH_E2E_BUILD_TYPE
#define BENCH_E2E_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
#define BENCH_E2E_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define BENCH_E2E_COMPILER "gcc " __VERSION__
#else
#define BENCH_E2E_COMPILER "unknown"
#endif

namespace lumiere::e2e {
namespace {

/// Set-up takes milliseconds, and a shared host's momentary speed can
/// swing that by half, so it is timed this many times, spread over the
/// run, and the median reported.
constexpr int kSetupRepetitions = 15;
/// A traced sim run and its plain twin take turns in this many slices.
constexpr int kTraceSlices = 40;

struct Args {
  const WorkloadInfo* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string json_path;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "bench_e2e: %s\n", message.c_str());
  std::fprintf(stderr,
               "usage: bench_e2e --workload <name> [--seed N] [--seconds S] [--trace] "
               "[--trace-out PATH] [--json PATH]\nworkloads:");
  for (const WorkloadInfo& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      const std::string name = value();
      args.workload = find_workload(name);
      if (args.workload == nullptr) usage_error("unknown workload \"" + name + "\"");
    } else if (flag == "--seed") {
      const std::string text = value();
      char* end = nullptr;
      args.seed = std::strtoull(text.c_str(), &end, 10);
      if (text.empty() || text[0] == '-' || *end != '\0') usage_error("--seed needs a whole number");
    } else if (flag == "--seconds") {
      const std::string text = value();
      char* end = nullptr;
      args.seconds = std::strtod(text.c_str(), &end);
      if (text.empty() || *end != '\0' || !(args.seconds >= 1 && args.seconds <= 600)) {
        usage_error("--seconds needs a number from 1 to 600");
      }
    } else if (flag == "--trace") {
      args.trace = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else if (flag == "--json") {
      args.json_path = value();
    } else {
      usage_error("unknown argument \"" + flag + "\"");
    }
  }
  if (args.workload == nullptr) usage_error("--workload is required");
  if (!args.trace_out.empty() && !args.trace) usage_error("--trace-out needs --trace");
  return args;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string json_escape(const std::string& raw) {
  std::string out;
  for (const char c : raw) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out;
}

bool write_json(const Args& args, const Metrics& metrics, const std::vector<Check>& checks,
                bool correct, std::uint64_t attempted, std::uint64_t failed) {
  std::ofstream out(args.json_path);
  if (!out) return false;
  char number[64];
  std::snprintf(number, sizeof(number), "%.17g", args.seconds);
  out << "{\"workload\": \"" << args.workload->name << "\", \"seed\": " << args.seed
      << ", \"seconds\": " << number << ", \"trace\": " << (args.trace ? "true" : "false")
      << ",\n \"host\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << ", \"compiler\": \""
      << json_escape(BENCH_E2E_COMPILER) << "\", \"build_type\": \"" << BENCH_E2E_BUILD_TYPE
      << "\"},\n \"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ",\n \"checks\": [";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "{\"name\": \"" << checks[i].name
        << "\", \"ok\": " << (checks[i].ok ? "true" : "false") << ", \"detail\": \""
        << json_escape(checks[i].detail) << "\"}";
  }
  out << "],\n \"metrics\": {";
  for (std::size_t i = 0; i < metrics.list().size(); ++i) {
    const Metric& m = metrics.list()[i];
    std::snprintf(number, sizeof(number), "%.17g", m.value);
    out << (i == 0 ? "\n  " : ",\n  ") << "\"" << m.name << "\": {\"value\": " << number
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "\n}}\n";
  return out.good();
}

/// Adds the checks that the timed run was passive — it executed exactly
/// the simulation the plain run did — and its overhead against the plain run.
void compare_runs(const WorkloadInfo& w, const RunResult& plain, const RunResult& traced,
                  Metrics& metrics, std::vector<Check>& checks) {
  // Sim: the wrappers add work on the one simulation thread, so wall
  // time shows their cost. TCP runs for a fixed wall time, so CPU does.
  const double plain_total = w.tcp ? plain.cpu_s : plain.wall_s;
  const double traced_total = w.tcp ? traced.cpu_s : traced.wall_s;
  metrics.set("obs.trace_overhead_frac", (traced_total - plain_total) / plain_total, "frac");
  std::string differs;
  for (std::size_t i = 0; i < plain.fingerprint.size(); ++i) {
    if (plain.fingerprint[i].second != traced.fingerprint[i].second) {
      differs += " " + plain.fingerprint[i].first;
    }
  }
  checks.push_back(Check{"trace_is_passive", differs.empty(),
                         differs.empty() ? "" : "traced run differs in" + differs});
}

/// Runs `base` untraced, timing set-ups in pauses of the run: a sim run
/// pauses before each slice, a TCP run times them all before it starts.
RunResult run_plain(const RunConfig& base, Metrics& metrics, std::vector<Check>& checks) {
  Run run(base, kSetupRepetitions);
  const int per_pause = kSetupRepetitions / run.slices();
  std::vector<double> setups;
  while (!run.done()) {
    for (int i = 0; i < per_pause; ++i) {
      if (const auto s = time_setup(base)) setups.push_back(*s);
    }
    run.advance();
  }
  checks.push_back(Check{"setup_reaches_first_commit",
                         setups.size() == static_cast<std::size_t>(kSetupRepetitions),
                         "every set-up must reach a first commit"});
  if (!setups.empty()) metrics.set("setup_s", median(setups), "s");
  return run.result();
}

/// Runs `base` plain and timed. Sim runs alternate slice by slice, so
/// both see the same host conditions and their difference is the
/// wrappers' cost; TCP runs go one after the other.
std::pair<RunResult, RunResult> run_traced(const RunConfig& base) {
  RunConfig timed_config = base;
  timed_config.timed = true;
  Run plain(base, kTraceSlices);
  Run timed(timed_config, kTraceSlices);
  for (int k = 0; !plain.done(); ++k) {
    Run& first = k % 2 == 0 ? plain : timed;
    Run& second = k % 2 == 0 ? timed : plain;
    first.advance();
    second.advance();
  }
  return {plain.result(), timed.result()};
}

int run(const Args& args) {
  const RunConfig base{args.workload, args.seed, args.seconds, /*timed=*/false};
  Metrics metrics;
  std::vector<Check> checks;
  RunResult plain;
  RunResult traced;
  if (args.trace) {
    std::tie(plain, traced) = run_traced(base);
  } else {
    plain = run_plain(base, metrics, checks);
  }
  metrics.merge(plain.metrics);
  checks.insert(checks.end(), plain.checks.begin(), plain.checks.end());
  if (args.trace) {
    metrics.merge(traced.spans);
    for (Check check : traced.checks) {
      check.name = "traced_" + check.name;
      checks.push_back(check);
    }
    compare_runs(*args.workload, plain, traced, metrics, checks);
    run_micros(metrics, checks);
    if (!args.trace_out.empty() && !write_chrome_trace(args.trace_out, span_ring())) {
      checks.push_back(Check{"trace_out_written", false, "cannot write " + args.trace_out});
    }
  }
  metrics.set("peak_rss_mb", peak_rss_mib(), "MiB");

  bool correct = true;
  for (const Metric& m : metrics.list()) {
    std::printf("%s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Check& check : checks) {
    correct = correct && check.ok;
    std::printf("check %s %s%s%s\n", check.name.c_str(), check.ok ? "ok" : "FAILED",
                check.detail.empty() || check.ok ? "" : ": ", check.ok ? "" : check.detail.c_str());
  }
  std::printf("attempted %llu failed %llu correct %s\n",
              static_cast<unsigned long long>(plain.attempted),
              static_cast<unsigned long long>(plain.failed), correct ? "yes" : "no");
  if (!args.json_path.empty() &&
      !write_json(args, metrics, checks, correct, plain.attempted, plain.failed)) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", args.json_path.c_str());
    return 1;
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace lumiere::e2e

int main(int argc, char** argv) {
  return lumiere::e2e::run(lumiere::e2e::parse_args(argc, argv));
}
