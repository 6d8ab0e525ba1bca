// lumiere_lab: a command-line experiment runner over the public API.
//
//   lumiere_lab [--protocol NAME] [--n N] [--faults F] [--fault-kind K]
//               [--delta-us D] [--gst-ms G] [--seconds S] [--seed X]
//               [--core simple|hotstuff|hotstuff2] [--trace N]
//               [--drift-ppm P] [--stagger-ms S]
//
// Examples:
//   lumiere_lab --protocol lumiere --n 13 --faults 4 --delta-us 500
//   lumiere_lab --protocol lp22 --n 16 --faults 1 --fault-kind silent-leader
//   lumiere_lab --protocol cogsworth --n 7 --gst-ms 1000 --seconds 30
//
// Prints the Section 2 measures and a trailing trace excerpt. Runs with
// sane defaults when given no arguments (so `for b in ...` style sweeps
// and smoke tests work).
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <string>

#include "adversary/behaviors.h"
#include "runtime/cluster.h"

using namespace lumiere;

namespace {

struct Args {
  std::string protocol = "lumiere";
  std::uint32_t n = 7;
  std::uint32_t faults = 0;
  std::string fault_kind = "silent-leader";
  std::int64_t delta_us = 1000;
  std::int64_t gst_ms = 0;
  std::int64_t seconds = 20;
  std::uint64_t seed = 1;
  std::string core = "simple";
  std::size_t trace = 0;
  std::int64_t drift_ppm = 0;
  std::int64_t stagger_ms = 0;
};

/// Accepts the lab's historical shorthands on top of the registry names.
std::string parse_core(const std::string& name) {
  if (name == "simple") return "simple-view";
  if (name == "hotstuff") return "chained-hotstuff";
  if (name == "hotstuff2") return "hotstuff-2";
  return name;
}

std::unique_ptr<adversary::Behavior> make_behavior(const std::string& kind) {
  if (kind == "mute") return std::make_unique<adversary::MuteBehavior>();
  if (kind == "selective-qc") {
    // The Section 3.5 gap-widening attack: favor the low half of the
    // cluster with QC/VC announcements, starve the rest.
    return std::make_unique<adversary::SelectiveQcBehavior>(4);
  }
  if (kind == "crash") {
    return std::make_unique<adversary::CrashBehavior>(TimePoint(Duration::seconds(2).ticks()));
  }
  if (kind == "qc-withhold") return std::make_unique<adversary::QcWithholderBehavior>();
  if (kind == "equivocate") return std::make_unique<adversary::EquivocatorBehavior>();
  return std::make_unique<adversary::SilentLeaderBehavior>();
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (flag == "--protocol") {
      if (const char* v = next()) args.protocol = v;
    } else if (flag == "--n") {
      if (const char* v = next()) args.n = static_cast<std::uint32_t>(std::atoi(v));
    } else if (flag == "--faults") {
      if (const char* v = next()) args.faults = static_cast<std::uint32_t>(std::atoi(v));
    } else if (flag == "--fault-kind") {
      if (const char* v = next()) args.fault_kind = v;
    } else if (flag == "--delta-us") {
      if (const char* v = next()) args.delta_us = std::atoll(v);
    } else if (flag == "--gst-ms") {
      if (const char* v = next()) args.gst_ms = std::atoll(v);
    } else if (flag == "--seconds") {
      if (const char* v = next()) args.seconds = std::atoll(v);
    } else if (flag == "--seed") {
      if (const char* v = next()) args.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (flag == "--core") {
      if (const char* v = next()) args.core = v;
    } else if (flag == "--trace") {
      if (const char* v = next()) args.trace = static_cast<std::size_t>(std::atoll(v));
    } else if (flag == "--drift-ppm") {
      if (const char* v = next()) args.drift_ppm = std::atoll(v);
    } else if (flag == "--stagger-ms") {
      if (const char* v = next()) args.stagger_ms = std::atoll(v);
    } else if (flag == "--help" || flag == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::printf(
        "usage: lumiere_lab [--protocol lumiere|basic-lumiere|lp22|fever|raresync|"
        "cogsworth|nk20|round-robin]\n"
        "                   [--n N] [--faults F] [--fault-kind silent-leader|mute|crash|"
        "qc-withhold|equivocate]\n"
        "                   [--delta-us D] [--gst-ms G] [--seconds S] [--seed X]\n"
        "                   [--core simple|hotstuff|hotstuff2] [--trace N]\n"
        "                   [--drift-ppm P] [--stagger-ms S]\n");
    return 2;
  }

  const auto& registry = runtime::ProtocolRegistry::instance();
  if (!registry.has_pacemaker(args.protocol)) {
    std::fprintf(stderr, "unknown protocol '%s'; registered:", args.protocol.c_str());
    for (const auto& name : registry.pacemaker_names()) std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (args.n % 3 != 1 || args.n < 4) {
    std::fprintf(stderr, "--n must satisfy n = 3f + 1 (4, 7, 10, 13, ...)\n");
    return 2;
  }
  const std::uint32_t f = (args.n - 1) / 3;
  if (args.faults > f) {
    std::fprintf(stderr, "--faults must be <= f = %u\n", f);
    return 2;
  }

  const TimePoint gst(Duration::millis(args.gst_ms).ticks());
  runtime::ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(args.n, Duration::millis(10),
                                       args.core == "simple" ? 3 : 4))
      .pacemaker(args.protocol)
      .core(parse_core(args.core))
      .gst(gst)
      .seed(args.seed)
      .drift_ppm_max(args.drift_ppm)
      .join_stagger(Duration::millis(args.stagger_ms))
      .delay(std::make_shared<sim::FixedDelay>(Duration::micros(args.delta_us)));
  if (args.faults > 0) {
    std::vector<ProcessId> byz;
    for (ProcessId id = 0; id < args.faults; ++id) byz.push_back(id);
    const std::string fault_kind = args.fault_kind;
    builder.behaviors(adversary::byzantine_set(
        byz, [fault_kind](ProcessId) { return make_behavior(fault_kind); }));
  }
  const auto errors = builder.validate();
  if (!errors.empty()) {
    for (const auto& error : errors) std::fprintf(stderr, "config error: %s\n", error.c_str());
    return 2;
  }

  std::printf("lumiere_lab: %s, n=%u (f=%u), f_a=%u (%s), delta=%lldus, Delta=10ms, "
              "GST=%lldms, %llds, seed=%llu, core=%s\n",
              args.protocol.c_str(), args.n, f, args.faults, args.fault_kind.c_str(),
              static_cast<long long>(args.delta_us), static_cast<long long>(args.gst_ms),
              static_cast<long long>(args.seconds),
              static_cast<unsigned long long>(args.seed), args.core.c_str());

  runtime::Cluster cluster(builder);
  cluster.run_until(gst + Duration::seconds(args.seconds));

  const auto& metrics = cluster.metrics();
  std::printf("\n-- measures (Section 2) --\n");
  std::printf("decisions after GST:       %zu\n",
              metrics.decisions().size() - metrics.first_decision_index_after(gst));
  std::printf("latency to first decision: %s ms\n",
              metrics.latency_to_first_decision(gst)
                  ? std::to_string(metrics.latency_to_first_decision(gst)->ticks() / 1000.0)
                        .c_str()
                  : "-");
  const auto ev_lat = metrics.max_decision_gap(gst, 10);
  std::printf("eventual worst gap:        %s ms\n",
              ev_lat ? std::to_string(ev_lat->ticks() / 1000.0).c_str() : "-");
  const auto ev_comm = metrics.max_msg_gap(gst, 10);
  std::printf("eventual worst window:     %s honest msgs\n",
              ev_comm ? std::to_string(*ev_comm).c_str() : "-");
  std::printf("honest messages total:     %llu (%llu pacemaker / %llu consensus)\n",
              static_cast<unsigned long long>(metrics.total_honest_msgs()),
              static_cast<unsigned long long>(metrics.pacemaker_msgs()),
              static_cast<unsigned long long>(metrics.consensus_msgs()));
  std::printf("min/max honest view:       %lld / %lld\n",
              static_cast<long long>(cluster.min_honest_view()),
              static_cast<long long>(cluster.max_honest_view()));

  if (args.trace > 0) {
    std::printf("\n-- last %zu trace events --\n", args.trace);
    const auto& events = cluster.trace().events();
    const std::size_t from = events.size() > args.trace ? events.size() - args.trace : 0;
    for (std::size_t i = from; i < events.size(); ++i) {
      const auto& e = events[i];
      std::printf("%10.3f ms  %-12s p%u view %lld\n", e.at.ticks() / 1000.0,
                  sim::to_string(e.kind), e.node, static_cast<long long>(e.view));
    }
  }
  return 0;
}
